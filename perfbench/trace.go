package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/candidates"
	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/repository"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/simcube"
)

// span is one timed call into a layer during a replayed request. Spans
// of one request share Req; Parent is the calling span's ID (0 for the
// request's root span). Matcher spans name the candidate in Pair.
type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Pair   string `json:"pair,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// replayShard mirrors one shard engine of the served repository: its
// own analysis cache, column cache and candidate-index segment.
type replayShard struct {
	ctx   *match.Context
	index *candidates.Index
}

// matchTrace pairs a replayed match request with its served latency.
type matchTrace struct {
	req    int64
	served time.Duration
}

// servedCounters snapshots the served repository's cumulative counters.
type servedCounters struct {
	an    analysis.AnalyzerStats
	col   match.ColumnCacheStats
	prune core.PruneTotals
}

// tracer replays every timed request in process, through the public
// functions of each layer in pipeline order, into its own 4-shard store
// configured like the served one, and records a span around each call.
// The replay store shares nothing with the served repository, so the
// served path stays untraced.
type tracer struct {
	epoch  time.Time
	store  *repository.Sharded
	shards []replayShard
	// matchers are the default matchers, unwrapped: the pruning spec
	// must be built from them, because the bound formulas recognise
	// matchers by their concrete types.
	matchers []match.Matcher
	strategy combine.Strategy
	spec     *candidates.Spec
	ids      atomic.Int64

	mu         sync.Mutex
	spans      []span
	matches    []matchTrace
	mismatches int
	before     servedCounters
	after      servedCounters
	allocs     []float64
	allocMB    []float64
	combineMs  []float64
	storageOut []metric
}

func newTracer(dir string) (*tracer, error) {
	store, err := repository.OpenSharded(dir, shards, repository.WithSyncPolicy(repository.SyncAlways()))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	t := &tracer{
		epoch:    time.Now(),
		store:    store,
		matchers: cfg.Matchers,
		strategy: cfg.Strategy,
		spec:     candidates.NewSpec(cfg.Matchers, cfg.Strategy, nil),
	}
	if t.spec == nil {
		store.Close()
		return nil, fmt.Errorf("default matchers admit no pruning spec")
	}
	// Configured as comaserve configures every shard engine; the shards
	// share the lead's auxiliary sources, so one analysis of an incoming
	// schema serves all of them.
	for i := 0; i < shards; i++ {
		ctx := match.NewContext()
		ctx.Analyzer = analysis.NewAnalyzerWithLimit(256)
		ctx.Columns = match.NewColumnCache(0)
		if i > 0 {
			lead := t.shards[0].ctx
			ctx.Dict, ctx.Types, ctx.Taxonomy = lead.Dict, lead.Types, lead.Taxonomy
		}
		t.shards = append(t.shards, replayShard{ctx: ctx, index: candidates.NewIndex()})
	}
	return t, nil
}

func (t *tracer) close() { t.store.Close() }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(req, id, parent int64, name, pair string, start, end time.Time) {
	s := span{Req: req, ID: id, Parent: parent, Name: name, Pair: pair,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name under parent; req 0 records
// nothing.
func (t *tracer) timed(req, parent int64, name string, fn func()) {
	start := time.Now()
	fn()
	if req != 0 {
		t.record(req, t.newID(), parent, name, "", start, time.Now())
	}
}

// timedMatcher delegates to a default matcher and records its busy time
// for one pair.
type timedMatcher struct {
	match.Matcher
	t           *tracer
	req, parent int64
}

func (m timedMatcher) Match(ctx *match.Context, s1, s2 *schema.Schema) *simcube.Matrix {
	start := time.Now()
	out := m.Matcher.Match(ctx, s1, s2)
	m.t.record(m.req, m.t.newID(), m.parent, "match."+m.Name(), s2.Name, start, time.Now())
	return out
}

func counters(svc *service) servedCounters {
	var c servedCounters
	for i := 0; i < svc.repo.NumShards(); i++ {
		e := svc.repo.ShardEngine(i)
		st := e.AnalyzerCacheStats()
		c.an.Hits += st.Hits
		c.an.Misses += st.Misses
		c.an.Invalidations += st.Invalidations
		if col, ok := e.ColumnCacheStats(); ok {
			c.col.Hits += col.Hits
			c.col.Misses += col.Misses
		}
	}
	c.prune = svc.repo.PruneTotals()
	return c
}

// begin and end bracket the timed phase for the served-side counters.
func (t *tracer) begin(svc *service) { t.before = counters(svc) }
func (t *tracer) end(svc *service)   { t.after = counters(svc) }

// replayPut replays PUT /schemas/{name}: decode, parse, analyze, log
// append, candidate-index add, and retirement of the replaced schema.
func (t *tracer) replayPut(r request) {
	req, root, start := t.ids.Add(1), t.newID(), time.Now()
	var p server.SchemaPayload
	var err error
	t.timed(req, root, "server.decode", func() { err = json.Unmarshal(r.body, &p) })
	if err != nil {
		t.fail("decode PUT %s: %v", r.name, err)
		return
	}
	p.Name = r.name
	var s *schema.Schema
	t.timed(req, root, "importer.parse", func() { s, err = server.ParseSchema(p) })
	if err != nil {
		t.fail("parse PUT %s: %v", r.name, err)
		return
	}
	owner := t.shards[t.store.ShardFor(s.Name)]
	var idx *analysis.SchemaIndex
	t.timed(req, root, "analysis.index", func() {
		idx = analysis.NewIndex(s, owner.ctx.Sources())
		for _, sh := range t.shards {
			sh.ctx.Analyzer.Pin(s)
		}
		owner.ctx.Analyzer.Seed(s, idx)
	})
	prev, _ := t.store.GetSchema(s.Name)
	t.timed(req, root, "repository.append", func() { err = t.store.PutSchema(s) })
	if err != nil {
		t.fail("append PUT %s: %v", r.name, err)
		return
	}
	t.timed(req, root, "candidates.add", func() { owner.index.Add(s, idx) })
	if prev != nil {
		t.timed(req, root, "analysis.invalidate", func() { t.retire(prev) })
	}
	t.record(req, root, 0, "put", "", start, time.Now())
}

// replayDelete replays DELETE /schemas/{name}.
func (t *tracer) replayDelete(name string) {
	req, root, start := t.ids.Add(1), t.newID(), time.Now()
	prev, _ := t.store.GetSchema(name)
	var err error
	t.timed(req, root, "repository.append", func() { err = t.store.DeleteSchema(name) })
	if err != nil {
		t.fail("append DELETE %s: %v", name, err)
		return
	}
	if prev != nil {
		t.timed(req, root, "analysis.invalidate", func() { t.retire(prev) })
	}
	t.record(req, root, 0, "delete", "", start, time.Now())
}

// retire drops a replaced or deleted schema from every shard's index
// segment and analysis cache, as the served backend does.
func (t *tracer) retire(s *schema.Schema) {
	for _, sh := range t.shards {
		sh.index.Remove(s)
		sh.ctx.Analyzer.Release(s)
		sh.ctx.Analyzer.Invalidate(s)
	}
}

func (t *tracer) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: replay: "+format+"\n", args...)
	t.mu.Lock()
	t.mismatches++
	t.mu.Unlock()
}

// prepared is a parsed, analyzed and bounded incoming schema, ready for
// the pruned scheduler.
type prepared struct {
	in     *schema.Schema
	topK   int
	shards []core.BoundedShard
}

// prepare decodes a match body and runs parse, analysis and candidate
// bounds, each inside a span when req > 0. The caller must call the
// returned release once the batch has run: it closes the analyzer
// windows opened before the store snapshot, as the served fan-out does.
func (t *tracer) prepare(req, root int64, body []byte) (*prepared, func(), error) {
	var mr server.MatchRequest
	var err error
	t.timed(req, root, "server.decode", func() { err = json.Unmarshal(body, &mr) })
	if err != nil {
		return nil, nil, err
	}
	var in *schema.Schema
	t.timed(req, root, "importer.parse", func() { in, err = server.ParseSchema(mr.Schema) })
	if err != nil {
		return nil, nil, err
	}
	var ends []func()
	for _, sh := range t.shards {
		ends = append(ends, sh.ctx.BeginAnalysis())
	}
	release := func() {
		for _, end := range ends {
			end()
		}
	}
	p := &prepared{in: in, topK: mr.TopK, shards: make([]core.BoundedShard, len(t.shards))}
	for i, sh := range t.shards {
		var cands []*schema.Schema
		for _, s := range t.store.ShardSchemas(i) {
			if s.Name != in.Name {
				cands = append(cands, s)
			}
		}
		p.shards[i].Shard = core.Shard{Ctx: sh.ctx, Candidates: cands}
	}
	lead := t.shards[0].ctx
	var idx *analysis.SchemaIndex
	t.timed(req, root, "analysis.index", func() {
		idx = analysis.NewIndex(in, lead.Sources())
		lead.Analyzer.Seed(in, idx)
	})
	t.timed(req, root, "candidates.bounds", func() {
		probe := candidates.NewProbe(t.spec, idx)
		for i, sh := range t.shards {
			cands := p.shards[i].Candidates
			for _, s := range sh.index.Stale(cands, sh.ctx.Sources()) {
				sh.index.Add(s, sh.ctx.Index(s))
			}
			p.shards[i].Bounds = sh.index.Bounds(probe, cands)
		}
	})
	return p, release, nil
}

// merge ranks the per-shard results like the served repository: by
// descending schema similarity, then name, cut to TopK.
func merge(p *prepared, results [][]*core.Result) *server.MatchResponse {
	type hit struct {
		s   *schema.Schema
		res *core.Result
	}
	var hits []hit
	for si, rs := range results {
		for ci, res := range rs {
			if res != nil {
				hits = append(hits, hit{p.shards[si].Candidates[ci], res})
			}
		}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].res.SchemaSim != hits[j].res.SchemaSim {
			return hits[i].res.SchemaSim > hits[j].res.SchemaSim
		}
		return hits[i].s.Name < hits[j].s.Name
	})
	if len(hits) > p.topK {
		hits = hits[:p.topK]
	}
	resp := &server.MatchResponse{Incoming: p.in.Name, Candidates: make([]server.MatchCandidate, 0, len(hits))}
	for _, h := range hits {
		resp.Candidates = append(resp.Candidates, server.MatchCandidate{
			Schema:          h.s.Name,
			SchemaSim:       h.res.SchemaSim,
			Correspondences: server.WireMapping(h.res.Mapping),
		})
	}
	return resp
}

// replayMatch replays one served POST /match in process and checks that
// the traced ranking equals the served one.
func (t *tracer) replayMatch(r request, served *server.MatchResponse, lat time.Duration) {
	req, root, start := t.ids.Add(1), t.newID(), time.Now()
	p, release, err := t.prepare(req, root, r.body)
	if err != nil {
		t.fail("match %s: %v", r.name, err)
		return
	}
	coreID := t.newID()
	cfg := core.Config{Strategy: t.strategy}
	for _, m := range t.matchers {
		cfg.Matchers = append(cfg.Matchers, timedMatcher{Matcher: m, t: t, req: req, parent: coreID})
	}
	coreStart := time.Now()
	results, _, _, err := core.MatchShardedPruned(context.Background(), p.in, p.shards, cfg, core.BatchOptions{TopK: p.topK})
	t.record(req, coreID, root, "core.match", "", coreStart, time.Now())
	release()
	if err != nil {
		t.fail("match %s: %v", r.name, err)
		return
	}
	var resp *server.MatchResponse
	t.timed(req, root, "core.merge", func() { resp = merge(p, results) })
	t.timed(req, root, "server.encode", func() { _, err = json.Marshal(resp) })
	t.record(req, root, 0, "match", "", start, time.Now())
	if err != nil || !servedRanking(resp).equal(servedRanking(served)) {
		t.fail("traced ranking for %s differs from the served one", r.name)
		return
	}
	t.mu.Lock()
	t.matches = append(t.matches, matchTrace{req: req, served: lat})
	t.mu.Unlock()
}

// offline runs after the timed phase, with no other traffic: the
// allocations of one pruned batch per probe, and the combination phase
// timed on its own over each probe's reference TopK pairs.
func (t *tracer) offline(refs map[string]ranking, sp *spec) error {
	lead := t.shards[0].ctx
	for _, probe := range sp.probes {
		p, release, err := t.prepare(0, 0, probe.body)
		if err != nil {
			return err
		}
		cfg := core.Config{Matchers: t.matchers, Strategy: t.strategy}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err = core.MatchShardedPruned(context.Background(), p.in, p.shards, cfg, core.BatchOptions{TopK: p.topK})
		runtime.ReadMemStats(&after)
		release()
		if err != nil {
			return err
		}
		t.allocs = append(t.allocs, float64(after.Mallocs-before.Mallocs))
		t.allocMB = append(t.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

		ref := refs[probe.name]
		for i, name := range ref.names {
			cand, ok := t.store.GetSchema(name)
			if !ok {
				return fmt.Errorf("combine: %s not stored", name)
			}
			cube, err := core.ExecuteMatchers(lead, p.in, cand, t.matchers)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := core.CombineCube(cube, p.in, cand, t.strategy, nil)
			t.combineMs = append(t.combineMs, ms(time.Since(start)))
			if err != nil {
				return err
			}
			if res.SchemaSim != ref.sims[i] {
				t.fail("combined similarity of %s vs %s differs from the reference", probe.name, name)
			}
		}
		lead.EvictTransient(p.in)
	}
	return nil
}

// storage records the served repository's storage-layer figures once the
// restarts are done.
func (t *tracer) storage(svc *service, r *runner) {
	pc := svc.repo.PageCacheStats()
	t.storageOut = []metric{
		{"repository.fsync_ms", r.fsyncMs, "ms"},
		{"repository.checkpoint_ms", percentile(r.checkpointMs, 50), "ms"},
		{"repository.open_ms", percentile(r.openMs, 50), "ms"},
		{"repository.pagecache_hit_ratio", ratio(pc.Hits, pc.Hits+pc.Misses), "ratio"},
		{"repository.warm_restored", float64(r.warmRestored), "count"},
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// union returns how much of [lo, hi] the intervals cover.
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64 = 0, lo
	for _, v := range iv {
		s, e := max(v[0], end), min(v[1], hi)
		if e > s {
			covered += e - s
			end = e
		}
	}
	return covered
}

// metrics computes the per-layer metrics from the spans and writes the
// spans out. ok is false when a traced ranking differed from the served
// one or the layer self times do not add up to the request wall time.
func (t *tracer) metrics(r *runner, path string) ([]metric, bool, error) {
	byReq := make(map[int64][]span)
	for _, s := range t.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var (
		coreSelf  []float64                // per-request core self time, ms
		named     = map[string][]float64{} // per-request span totals, ms
		busy      = map[string][]float64{} // per-request matcher busy, ms
		pairMs    []float64
		overhead  []float64
		wall      []float64
		sumRatio  []float64
		busyTotal float64
		coreTotal float64
	)
	workers := float64(match.ResolveWorkers(0))
	for _, mt := range t.matches {
		spans := byReq[mt.req]
		var root, coreSpan span
		perMatcher := map[string]time.Duration{}
		pairs := map[string][2]int64{}
		var children [][2]int64
		for _, s := range spans {
			switch {
			case s.Parent == 0:
				root = s
			case s.Name == "core.match":
				coreSpan = s
			}
		}
		layerSelf := map[string]float64{}
		spanSum := map[string]float64{}
		for _, s := range spans {
			switch {
			case s.Parent == 0 || s.Name == "core.match":
			case s.Parent == coreSpan.ID:
				perMatcher[s.Name] += s.dur()
				children = append(children, [2]int64{s.Start, s.End})
				pr, seen := pairs[s.Pair]
				if !seen {
					pr = [2]int64{s.Start, s.End}
				}
				pairs[s.Pair] = [2]int64{min(pr[0], s.Start), max(pr[1], s.End)}
			default:
				layer, _, _ := strings.Cut(s.Name, ".")
				layerSelf[layer] += ms(s.dur())
				spanSum[s.Name] += ms(s.dur())
			}
		}
		covered := union(children, coreSpan.Start, coreSpan.End)
		layerSelf["match"] += ms(time.Duration(covered))
		layerSelf["core"] += ms(coreSpan.dur() - time.Duration(covered))
		spanSum["core.match"] = ms(coreSpan.dur())
		coreSelf = append(coreSelf, layerSelf["core"])
		var total float64
		for _, v := range layerSelf {
			total += v
		}
		for n, v := range spanSum {
			named[n] = append(named[n], v)
		}
		var matcherBusy time.Duration
		for n, d := range perMatcher {
			busy[n] = append(busy[n], ms(d))
			matcherBusy += d
		}
		for _, pr := range pairs {
			pairMs = append(pairMs, ms(time.Duration(pr[1]-pr[0])))
		}
		busyTotal += float64(matcherBusy)
		coreTotal += float64(coreSpan.dur()) * workers
		wall = append(wall, ms(root.dur()))
		overhead = append(overhead, ms(mt.served-root.dur()))
		sumRatio = append(sumRatio, total/ms(root.dur()))
	}
	// PUT-side layers come from the replayed writes (the set-up load, and
	// the writer's requests on corpus-churn).
	var appendMs, addMs []float64
	for _, s := range t.spans {
		switch s.Name {
		case "repository.append":
			appendMs = append(appendMs, ms(s.dur()))
		case "candidates.add":
			addMs = append(addMs, ms(s.dur()))
		}
	}
	d := func(a, b uint64) uint64 { return b - a }
	b, a := t.before, t.after
	med := func(xs []float64) float64 { return percentile(xs, 50) }
	out := []metric{
		{"server.decode_ms", med(named["server.decode"]), "ms"},
		{"server.encode_ms", med(named["server.encode"]), "ms"},
		{"server.overhead_ms", med(overhead), "ms"},
		{"importer.parse_ms", med(named["importer.parse"]), "ms"},
		{"analysis.index_ms", med(named["analysis.index"]), "ms"},
		{"analysis.hit_ratio", ratio(d(b.an.Hits, a.an.Hits), d(b.an.Hits, a.an.Hits)+d(b.an.Misses, a.an.Misses)), "ratio"},
		{"analysis.invalidations", float64(d(b.an.Invalidations, a.an.Invalidations)), "count"},
		{"candidates.bounds_ms", med(named["candidates.bounds"]), "ms"},
		{"candidates.prune_ratio", ratio(d(b.prune.Skipped, a.prune.Skipped), d(b.prune.Candidates, a.prune.Candidates)), "ratio"},
		{"candidates.matched_pairs", float64(d(b.prune.Matched, a.prune.Matched)) / float64(max(d(b.prune.Batches, a.prune.Batches), 1)), "count"},
		{"candidates.add_ms", med(addMs), "ms"},
		{"core.match_ms", med(named["core.match"]), "ms"},
		{"core.self_ms", med(coreSelf), "ms"},
		{"core.busy_ratio", busyTotal / coreTotal, "ratio"},
	}
	for _, m := range t.matchers {
		out = append(out, metric{"match." + m.Name() + "_ms", med(busy["match."+m.Name()]), "ms"})
	}
	out = append(out,
		metric{"match.pair_ms", med(pairMs), "ms"},
		metric{"match.colcache_hit_ratio", ratio(d(b.col.Hits, a.col.Hits), d(b.col.Hits, a.col.Hits)+d(b.col.Misses, a.col.Misses)), "ratio"},
		metric{"match.allocs_per_match", med(t.allocs), "count"},
		metric{"match.alloc_mb_per_match", med(t.allocMB), "MiB"},
		metric{"combine.combine_ms", med(t.combineMs), "ms"},
		metric{"repository.append_ms", med(appendMs), "ms"},
	)
	out = append(out, t.storageOut...)
	sum := med(sumRatio)
	out = append(out,
		metric{"trace.layer_sum_ratio", sum, "ratio"},
		metric{"trace.overhead_ratio", med(wall) / percentile(r.matchLat, 50), "ratio"},
	)
	ok := t.mismatches == 0 && len(t.matches) > 0 && sum > 0.95 && sum <= 1.0001
	return out, ok, t.write(path)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
