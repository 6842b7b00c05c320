package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	coma "repro"
	"repro/internal/server"
)

const (
	// setupRepeats is how many times a run builds its store from
	// scratch; setup_s reports the median and the last store serves the
	// run. A traced run sets up once.
	setupRepeats = 3
	// restarts is how many checkpoint → close → reopen → first match
	// cycles end a run; restart_ms reports the median.
	restarts = 11
)

// ranking is a served or reference TopK result: names and bit-exact
// combined schema similarities, best first.
type ranking struct {
	names []string
	sims  []float64
}

func (a ranking) equal(b ranking) bool {
	if len(a.names) != len(b.names) {
		return false
	}
	for i := range a.names {
		if a.names[i] != b.names[i] || a.sims[i] != b.sims[i] {
			return false
		}
	}
	return true
}

func servedRanking(resp *server.MatchResponse) ranking {
	var r ranking
	for _, c := range resp.Candidates {
		r.names = append(r.names, c.Schema)
		r.sims = append(r.sims, c.SchemaSim)
	}
	return r
}

// observation is one served match response, checked once the reference
// rankings exist.
type observation struct {
	probe   string
	phase   phase
	got     ranking
	partial bool
}

// runner carries one run's state: the generated inputs, the operation
// ledger and every sample the metrics are computed from.
type runner struct {
	spec   *spec
	dir    string
	led    ledger
	tracer *tracer // nil unless the run is traced

	mu           sync.Mutex
	seen         []observation
	matchLat     []float64 // timed matches, ms
	timedPutLat  []float64 // timed PUTs (corpus-churn), ms
	loadPutLat   []float64 // set-up PUTs, ms
	checkpointMs []float64
	setupS       []float64
	restartMs    []float64
	openMs       []float64
	timedMatches int
	timedPasses  int
	timedWall    time.Duration
	liveHeapMB   float64
	warmRestored int
	fsyncMs      float64
}

func (r *runner) observe(probe string, p phase, resp *server.MatchResponse) {
	r.mu.Lock()
	r.seen = append(r.seen, observation{probe: probe, phase: p, got: servedRanking(resp), partial: resp.Partial})
	r.mu.Unlock()
}

func (r *runner) matchOnce(svc *service, p phase, probe request) {
	resp, status, lat, err := svc.match(probe)
	r.led.record(p, status, err)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	r.observe(probe.name, p, resp)
	if p != phaseTimed {
		return
	}
	r.mu.Lock()
	r.matchLat = append(r.matchLat, ms(lat))
	r.timedMatches++
	r.mu.Unlock()
	if r.tracer != nil {
		r.tracer.replayMatch(probe, resp, lat)
	}
}

func (r *runner) putOnce(svc *service, p phase, req request) {
	status, lat, err := svc.put(req)
	r.led.record(p, status, err)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	r.mu.Lock()
	if p == phaseTimed {
		r.timedPutLat = append(r.timedPutLat, ms(lat))
	} else {
		r.loadPutLat = append(r.loadPutLat, ms(lat))
	}
	r.mu.Unlock()
	if r.tracer != nil {
		r.tracer.replayPut(req)
	}
}

func (r *runner) delOnce(svc *service, p phase, name string) {
	status, _, err := svc.del(name)
	r.led.record(p, status, err)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	if r.tracer != nil {
		r.tracer.replayDelete(name)
	}
}

// checkpoint runs one repository checkpoint (log compaction, page
// build and warm sidecar). An error is a failed operation; it is never
// retried.
func (r *runner) checkpoint(svc *service, p phase) {
	start := time.Now()
	err := svc.repo.Checkpoint()
	r.led.record(p, 0, err)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: checkpoint:", err)
		return
	}
	r.mu.Lock()
	r.checkpointMs = append(r.checkpointMs, ms(time.Since(start)))
	r.mu.Unlock()
}

// drive sends the probes from one closed-loop client for whole passes
// until minDur has elapsed (one pass when minDur is 0). In the timed
// phase of corpus-churn the writer runs beside the reader, opsPerProbe
// writes per probe, checkpointing after every checkpointEvery writes;
// only the writer goroutine checkpoints.
func (r *runner) drive(svc *service, p phase, minDur time.Duration) {
	var slots chan int
	var writer sync.WaitGroup
	if p == phaseTimed && len(r.spec.writes) > 0 {
		slots = make(chan int)
		writer.Add(1)
		go func() {
			defer writer.Done()
			n := 0
			for j := range slots {
				for _, op := range r.spec.writes[j*r.spec.opsPerProbe : (j+1)*r.spec.opsPerProbe] {
					if op.del {
						r.delOnce(svc, p, op.name)
					} else {
						r.putOnce(svc, p, op.request)
					}
					if n++; n%r.spec.checkpointEvery == 0 {
						r.checkpoint(svc, p)
					}
				}
			}
		}()
	}
	start := time.Now()
	passes := 0
	for {
		for j, probe := range r.spec.probes {
			if slots != nil {
				slots <- j
			}
			r.matchOnce(svc, p, probe)
		}
		passes++
		if time.Since(start) >= minDur {
			break
		}
	}
	wall := time.Since(start)
	if slots != nil {
		close(slots)
	}
	writer.Wait()
	if p == phaseTimed {
		r.timedWall = wall
		r.timedPasses = passes
	}
}

// setup builds a fresh store over HTTP, warms it with one pass of the
// probes and collects garbage: the work setup_s times.
func (r *runner) setup(i int) (*service, string, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("store-%d", i))
	start := time.Now()
	svc, err := startService(dir)
	if err != nil {
		return nil, "", err
	}
	for _, req := range r.spec.store {
		r.putOnce(svc, phaseSetup, req)
	}
	r.drive(svc, phaseWarmup, 0)
	runtime.GC()
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return svc, dir, nil
}

// reference ranks every probe with an exhaustive scan of the quiesced
// store, in process.
func (r *runner) reference(svc *service) (map[string]ranking, error) {
	refs := make(map[string]ranking)
	for _, probe := range r.spec.probes {
		var req server.MatchRequest
		if err := json.Unmarshal(probe.body, &req); err != nil {
			return nil, err
		}
		in, err := server.ParseSchema(req.Schema)
		if err != nil {
			return nil, err
		}
		ms, err := svc.repo.MatchIncoming(in, coma.TopK(req.TopK), coma.Exhaustive())
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", probe.name, err)
		}
		var rk ranking
		for _, m := range ms {
			rk.names = append(rk.names, m.Schema.Name)
			rk.sims = append(rk.sims, m.Result.SchemaSim)
		}
		refs[probe.name] = rk
	}
	return refs, nil
}

// execute runs the whole workload: set-up (repeated unless traced), the
// timed phase, the reference scan, the restarts, and the output check.
// It returns the number of served responses that differed from the
// reference.
func (r *runner) execute(seconds int) (wrongs int, err error) {
	repeats := setupRepeats
	if r.tracer != nil {
		repeats = 1
	}
	var svc *service
	var dir string
	for i := 0; i < repeats; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return 0, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
		}
		if svc, dir, err = r.setup(i); err != nil {
			return 0, err
		}
	}
	defer func() {
		if svc != nil {
			if serr := svc.stop(); err == nil {
				err = serr
			}
		}
	}()
	if r.tracer != nil {
		r.tracer.begin(svc)
	}
	r.drive(svc, phaseTimed, time.Duration(seconds)*time.Second)
	// Two collections: the first moves pooled buffers to the pools'
	// victim caches, the second frees them.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.liveHeapMB = float64(mem.HeapAlloc) / (1 << 20)
	if m, ok := svc.handler.Metrics(); ok {
		if n := m.Value("coma_storage_fsync_seconds_count"); n > 0 {
			r.fsyncMs = 1000 * m.Value("coma_storage_fsync_seconds_sum") / n
		}
	}
	if r.tracer != nil {
		r.tracer.end(svc)
	}

	refs, err := r.reference(svc)
	if err != nil {
		return 0, err
	}
	if r.tracer != nil {
		if err := r.tracer.offline(refs, r.spec); err != nil {
			return 0, err
		}
	}
	// Every seed restarts into the same probe: the one with the least name.
	first := r.spec.probes[0]
	for _, p := range r.spec.probes {
		if p.name < first.name {
			first = p
		}
	}
	for i := 0; i < restarts; i++ {
		r.checkpoint(svc, phaseRestart)
		start := time.Now()
		serr := svc.stop()
		svc = nil
		if serr != nil {
			return 0, serr
		}
		if svc, err = startService(dir); err != nil {
			return 0, err
		}
		r.matchOnce(svc, phaseRestart, first)
		r.restartMs = append(r.restartMs, ms(time.Since(start)))
		r.openMs = append(r.openMs, ms(svc.openDur))
		r.warmRestored = svc.repo.WarmStart().Restored
	}
	if r.tracer != nil {
		r.tracer.storage(svc, r)
	}

	for _, o := range r.seen {
		if o.partial || !o.got.equal(refs[o.probe]) {
			r.led.wrong(o.phase)
			wrongs++
			fmt.Fprintf(os.Stderr, "perfbench: %s ranking for %s differs from the exhaustive reference\n",
				phaseNames[o.phase], o.probe)
		}
	}
	return wrongs, nil
}
