// Command perfbench is the repository's end-to-end benchmark. It serves
// a 4-shard coma.ShardedRepository over HTTP on a loopback port,
// configured like comaserve's defaults, and drives it from the same
// process with closed-loop clients:
//
//	paper-topk    16 twins of the paper's schemas; the client sends inline
//	              TopK(3) matches, nothing can be pruned
//	corpus-churn  a 256-schema Zipf corpus; the reader sends one inline
//	              TopK(10) probe per evolution family while a writer PUTs,
//	              DELETEs and checkpoints a region of its own
//
// Every run sets up its store, times whole passes over the seeded probe
// sequence for at least -seconds, ranks every probe with an exhaustive
// scan of the quiesced store, restarts the store from its checkpoint,
// and checks every served ranking against the reference. With -trace 1
// it additionally replays each request in process through the
// pipeline's public functions and reports per-layer metrics instead of
// end-to-end ones.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload corpus-churn --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it list the
// run metadata, the operation counts per phase and every metric with
// its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/match"
	"repro/internal/workload"
)

// paperOverallWant is the Overall of the default five-matcher match over
// the paper's ten match tasks. Any other value is a match-quality bug.
const paperOverallWant = "0.61905568603943"

type metric struct {
	name  string
	value float64
	unit  string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-topk or corpus-churn")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "minimum timed-phase length, in seconds (whole passes)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	gen, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	sp, err := gen(seed)
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("data-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	overall, err := paperOverall()
	if err != nil {
		return err
	}
	r := &runner{spec: sp, dir: dir}
	if traced {
		if r.tracer, err = newTracer(filepath.Join(dir, "replay")); err != nil {
			return err
		}
		defer r.tracer.close()
	}
	wrongs, err := r.execute(seconds)
	if err != nil {
		return err
	}
	correct := wrongs == 0 && fmt.Sprintf("%.14g", overall) == paperOverallWant

	sent, bad := r.led.totals()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%t\n", name, seed, seconds, traced)
	printMeta(sp)
	for p := phase(0); p < numPhases; p++ {
		c := &r.led[p]
		fmt.Printf("# ops phase=%s sent=%d succeeded=%d failed=%d refused=%d\n",
			phaseNames[p], c.sent.Load(), c.ok.Load(), c.failed.Load(), c.refused.Load())
	}
	fmt.Printf("# samples timed_matches=%d timed_passes=%d timed_puts=%d load_puts=%d setups=%d restarts=%d\n",
		len(r.matchLat), r.timedPasses, len(r.timedPutLat), len(r.loadPutLat), len(r.setupS), len(r.restartMs))

	e2e := r.endToEnd()
	info := []metric{
		{"fail_ratio", float64(bad) / float64(max(sent, 1)), "ratio"},
		{"paper_overall", overall, "ratio"},
	}
	out := e2e
	if traced {
		spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		layers, ok, err := r.tracer.metrics(r, spans)
		if err != nil {
			return err
		}
		fmt.Printf("# spans %s\n", spans)
		correct = correct && ok
		info = append(e2e, info...)
		out = append(r.putLatency(), layers...)
	} else {
		info = append(info, r.putLatency()...)
	}
	for _, m := range append(info, out...) {
		fmt.Printf("# metric %s %.6g %s\n", m.name, m.value, m.unit)
	}
	if !correct {
		fmt.Printf("# correct=false wrong_rankings=%d paper_overall=%.14g (want %s)\n", wrongs, overall, paperOverallWant)
	}
	return printResult(correct, sent, bad, out)
}

// endToEnd computes the end-to-end metrics, the ones BENCHMARK.json
// bounds.
func (r *runner) endToEnd() []metric {
	return []metric{
		{"match_p50_ms", percentile(r.matchLat, 50), "ms"},
		{"match_p90_ms", percentile(r.matchLat, 90), "ms"},
		{"match_per_s", float64(r.timedMatches) / r.timedWall.Seconds(), "1/s"},
		{"restart_ms", percentile(r.restartMs, 50), "ms"},
		{"setup_s", percentile(r.setupS, 50), "s"},
		{"live_heap_mb", r.liveHeapMB, "MiB"},
	}
}

// putLatency reports served PUT latency: the timed PUTs of corpus-churn,
// or the set-up PUTs of the topk workloads, which write only while
// setting up. It carries no bound: across seeds it spread by 18-30% on a
// 2-vCPU VM, more than any bound could absorb.
func (r *runner) putLatency() []metric {
	puts := r.timedPutLat
	if len(puts) == 0 {
		puts = r.loadPutLat
	}
	return []metric{
		{"put_p50_ms", percentile(puts, 50), "ms"},
		{"put_p90_ms", percentile(puts, 90), "ms"},
	}
}

// paperOverall is the Overall of the default match on the paper's ten
// match tasks.
func paperOverall() (float64, error) {
	var qs []eval.Quality
	for _, t := range workload.Tasks() {
		res, err := core.Match(match.NewContext(), t.S1, t.S2, core.DefaultConfig())
		if err != nil {
			return 0, fmt.Errorf("paper task %s: %w", t.Name, err)
		}
		qs = append(qs, eval.Evaluate(res.Mapping, t.Gold))
	}
	return eval.Average(qs).Overall, nil
}

func printMeta(sp *spec) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Printf("# meta nproc=%d gomaxprocs=%d go=%s revision=%s shards=%d setup_repeats=%d restarts=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, shards, setupRepeats, restarts)
	var ps []string
	for _, p := range sp.params {
		ps = append(ps, fmt.Sprintf("%s=%v", p.key, p.value))
	}
	fmt.Printf("# params %s\n", strings.Join(ps, " "))
}

// printResult writes the final JSON line.
func printResult(correct bool, attempted, failed int64, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		vals[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, vals})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
