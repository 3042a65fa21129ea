package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/mcb"
	"repro/internal/obs"
	"repro/internal/qe"
	"repro/internal/registry"
	"repro/internal/shard"
)

const (
	// replayN is how many requests the traced replays time: enough for a
	// p99 with minTail samples beyond it.
	replayN = 1100
	// deltaN is how many single weight deltas are applied in-process:
	// enough for a median with minTail samples beyond it.
	deltaN = 20
	// deltaWarmRows is how many of the replay's sources are cached before
	// each delta, so that every swap finds a warm cache to invalidate.
	deltaWarmRows = 256
)

// rowTracer wraps a row source and, while on, records one span per row
// built, parented to the engine call in progress. The replays that use it
// are sequential, so one current request at a time is enough.
type rowTracer struct {
	inner  qe.RowSource
	tr     *tracer
	name   string
	on     atomic.Bool
	req    atomic.Int64
	parent atomic.Int64
}

func newRowTracer(inner qe.RowSource, tr *tracer, name string) *rowTracer {
	t := &rowTracer{inner: inner, tr: tr, name: name}
	t.parent.Store(-1)
	return t
}

// follow points the row spans to come at request req's span parent.
func (t *rowTracer) follow(req int64, parent int) {
	t.req.Store(req)
	t.parent.Store(int64(parent))
	t.on.Store(true)
}

func (t *rowTracer) NumVertices() int { return t.inner.NumVertices() }

func (t *rowTracer) RowCost(src int32) int64 {
	if s, ok := t.inner.(qe.Sizer); ok {
		return s.RowCost(src)
	}
	return int64(t.inner.NumVertices())
}

func (t *rowTracer) Row(src int32, out []graph.Weight) int64 {
	if !t.on.Load() {
		return t.inner.Row(src, out)
	}
	start := time.Now()
	ops := t.inner.Row(src, out)
	t.tr.record(t.name, t.req.Load(), int(t.parent.Load()), start, time.Now())
	return ops
}

// layers runs the traced split: counters the daemon kept over the
// window, then the same graph and requests through each module's Go API,
// timed from here. It sets every per-layer metric.
func (r *runner) layers(load *loadResult, varsEnd map[string]float64) error {
	ctx := context.Background()
	tr := newTracer()
	delta := func(k string) float64 { return varsEnd[k] - r.varsWarm[k] }
	reads := float64(load.tally.attempted)

	// Daemon counters over the window.
	hits, misses := delta("qe.cache.hits"), delta("qe.cache.misses")
	built := delta("qe.rows.built")
	r.set("qe.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("qe.rows_built_per_req", ratio(built, reads), "rows/req")
	r.set("qe.coalesced_frac", ratio(delta("qe.rows.coalesced"), built+delta("qe.rows.coalesced")), "ratio")
	r.set("qe.shed_frac", ratio(delta("qe.shed"), reads), "ratio")
	big := delta("hetero.hybrid.units.big")
	r.set("hetero.units_big_frac", ratio(big, big+delta("hetero.hybrid.units.cpu")), "ratio")
	r.set("apsp.row_ops", ratio(delta("qe.rows.build.ops"), built), "ops/row")
	lag, err := percentile(load.lag, 0.99)
	if err != nil {
		return fmt.Errorf("generator lag: %w", err)
	}
	r.set("loadgen.lag_p99_ms", lag, "ms")

	// The build cmd/apsp times for build_s, phase by phase; then the
	// served graph's oracle, which the replays below use.
	b := tr.begin("apsp.build", 0, -1)
	bo := apsp.NewOracleParallel(r.bg, hetero.Workers())
	tr.end(b)
	for _, ph := range []string{"bcc", "blocks", "forest", "aptable"} {
		r.set("apsp.build."+ph+"_ms", ms(bo.BuildPhases.Get(ph)), "ms")
	}
	r.set("apsp.build.relaxations", float64(bo.Relaxations), "count")
	b = tr.begin("apsp.build.served", 0, -1)
	o := apsp.NewOracleParallel(r.g, hetero.Workers())
	tr.end(b)
	ours, _ := o.Memory().Bytes()
	r.set("apsp.stored_mb", float64(ours)/(1<<20), "MB")

	if err := r.traceSnapshot(tr, o); err != nil {
		return err
	}

	reqs := r.replayRequests()
	warmN := len(reqs) - replayN

	// Rows: Oracle.Row for the replay's sources, one at a time.
	rows := newRowTracer(o, tr, "apsp.row")
	buf := make([]graph.Weight, r.g.NumVertices())
	for i, s := range replaySources(reqs[warmN:], replayN) {
		rows.follow(int64(i+1), -1)
		rows.Row(s, buf)
	}
	if err := r.setPercentiles("apsp.row", tr.byName("apsp.row"), "us", time.Microsecond); err != nil {
		return err
	}

	// The request path: registry, then qe, then row builds, traced; the
	// same calls untraced on a fresh engine give the tracing overhead.
	// Untraced and traced replays alternate, twice each, and the faster of
	// each kind is kept, so warm-up order does not read as overhead. The
	// spans of the second traced replay are the ones kept.
	plain, tracedWall := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 2; i++ {
		d, err := r.replay(ctx, o, o, reqs, warmN, nil)
		if err != nil {
			return err
		}
		plain = min(plain, d)
		spanTr := tr
		if i == 0 {
			spanTr = newTracer()
		}
		rt := newRowTracer(o, spanTr, "row")
		if d, err = r.replay(ctx, rt, o, reqs, warmN, rt); err != nil {
			return err
		}
		tracedWall = min(tracedWall, d)
	}
	r.set("trace.overhead_frac", (tracedWall.Seconds()-plain.Seconds())/plain.Seconds(), "ratio")
	if err := r.setPercentiles("qe.query", tr.byName("qe"), "us", time.Microsecond); err != nil {
		return err
	}
	regSelf := tr.selfTimes("registry")
	p50, err := percentile(durations(regSelf, time.Nanosecond), 0.5)
	if err != nil {
		return err
	}
	r.set("registry.acquire_p50_ns", p50, "ns")

	// The same requests over the socket: what the daemon adds on top of
	// the in-process registry+qe span of each request.
	regSpans := tr.byName("registry")
	over := make([]float64, 0, replayN)
	for i, q := range reqs[warmN:] {
		t0 := time.Now()
		status, _, err := send(r.client, r.front, q)
		t1 := time.Now()
		if err != nil || status != 200 {
			return fmt.Errorf("socket replay: status %d, %v", status, err)
		}
		tr.record("socket", int64(i+1), -1, t0, t1)
		over = append(over, float64(t1.Sub(t0)-regSpans[i])/float64(time.Microsecond))
	}
	if err := r.setPercentilesF("oracled.overhead", over, "us"); err != nil {
		return err
	}

	if err := r.traceDeltas(ctx, tr, o, reqs[warmN:]); err != nil {
		return err
	}
	if err := r.traceShards(ctx, tr, o, reqs[warmN:]); err != nil {
		return err
	}
	if err := r.traceMCB(ctx, tr); err != nil {
		return err
	}
	path := filepath.Join(r.work, "trace-"+r.w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: spans written to %s\n", r.w.name, path)
	return nil
}

// replayRequests is a warm-up prefix, long enough to fill the row cache,
// followed by replayN requests, drawn from a stream of the workload's
// traffic that the window did not use.
func (r *runner) replayRequests() []request {
	rows := r.w.cacheRows
	if rows == 0 {
		rows = qe.DefaultCacheRows
	}
	warm := rows
	if r.w.traffic == batchUniform {
		warm = rows / batchSide
	}
	st := newStream(r.seed, 3000, r.g.NumVertices(), r.w.traffic)
	out := make([]request, warm+replayN)
	for i := range out {
		out[i] = st.next()
	}
	return out
}

// replaySources lists the requests' sources in order, up to n.
func replaySources(reqs []request, n int) []int32 {
	var out []int32
	for _, q := range reqs {
		if q.sources != nil {
			out = append(out, q.sources...)
		} else {
			out = append(out, q.u)
		}
		if len(out) >= n {
			return out[:n]
		}
	}
	return out
}

// replay builds a registry and engine over src the way oracled does,
// warms it with reqs[:warmN], and then sends the rest one at a time. When
// rt is set (src then wraps it), each timed request records a registry
// span (Acquire to Release) with a qe span inside it, and rt parents the
// row spans to the qe span. It returns the wall time of the timed
// requests.
func (r *runner) replay(ctx context.Context, src qe.RowSource, o *apsp.Oracle, reqs []request, warmN int, rt *rowTracer) (time.Duration, error) {
	eng := qe.New(src, qe.Config{CacheRows: r.w.cacheRows, Reg: obs.NewRegistry()})
	reg, err := registry.Open(registry.Config{Reg: obs.NewRegistry()})
	if err != nil {
		return 0, err
	}
	defer reg.Close(ctx) // closes the engine too
	reg.AddStatic(registry.DefaultGraph, o, eng)
	call := func(q request, id int64) error {
		traced := rt != nil && id > 0
		var rs int
		if traced {
			rs = rt.tr.begin("registry", id, -1)
		}
		e, err := reg.Acquire(ctx, registry.DefaultGraph)
		if err != nil {
			return err
		}
		var qs int
		if traced {
			qs = rt.tr.begin("qe", id, rs)
			rt.follow(id, qs)
		}
		if q.sources != nil {
			_, err = e.Engine().Batch(ctx, q.sources, q.targets)
		} else {
			_, err = e.Engine().Query(ctx, q.u, q.v)
		}
		if traced {
			rt.on.Store(false)
			rt.tr.end(qs)
		}
		e.Release()
		if traced {
			rt.tr.end(rs)
		}
		return err
	}
	for _, q := range reqs[:warmN] {
		if err := call(q, 0); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i, q := range reqs[warmN:] {
		if err := call(q, int64(i+1)); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// traceSnapshot times writing the oracle's snapshot and reading it back.
func (r *runner) traceSnapshot(tr *tracer, o *apsp.Oracle) error {
	path := filepath.Join(r.dir, "traced.snap")
	t0 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := o.WriteTo(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t1 := time.Now()
	tr.record("snapshot.write", 0, -1, t0, t1)
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	back, err := apsp.ReadOracle(bufio.NewReader(f))
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("read snapshot back: %w", err)
	}
	tr.record("snapshot.read", 0, -1, t1, t2)
	if back.G.NumEdges() != o.G.NumEdges() {
		r.fail("snapshot read back %d edges, wrote %d", back.G.NumEdges(), o.G.NumEdges())
	}
	r.set("snapshot.write_ms", ms(t1.Sub(t0)), "ms")
	r.set("snapshot.read_ms", ms(t2.Sub(t1)), "ms")
	return os.Remove(path)
}

// traceDeltas applies deltaN single weight deltas in sequence, the first
// of the seed's delta stream, as /v1/deltas would: each new oracle is
// swapped into an engine whose row cache holds the rows of the first
// deltaWarmRows of reqs' sources, refilled before every delta, and the
// rows each swap evicts are counted.
func (r *runner) traceDeltas(ctx context.Context, tr *tracer, o *apsp.Oracle, reqs []request) error {
	eng := qe.New(o, qe.Config{CacheRows: r.w.cacheRows, Reg: obs.NewRegistry()})
	defer eng.Close(ctx)
	warm := replaySources(reqs, deltaWarmRows)
	ds := newDeltaStream(r.seed, r.g.NumEdges())
	var times []float64
	touched, evicted := 0, 0
	for i := 0; i < deltaN; i++ {
		for _, s := range warm {
			if _, err := eng.Query(ctx, s, 0); err != nil {
				return fmt.Errorf("warm engine: %w", err)
			}
		}
		t0 := time.Now()
		next, res, err := o.ApplyDelta(ctx, []apsp.Delta{ds.next()})
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("apply delta: %w", err)
		}
		tr.record("apsp.delta", int64(i+1), -1, t0, t1)
		times = append(times, ms(t1.Sub(t0)))
		touched += res.TouchedBlocks
		evicted += eng.SwapSource(next, res.Stale)
		o = next
	}
	p50, err := percentile(times, 0.5)
	if err != nil {
		return err
	}
	r.set("apsp.delta_apply_p50_ms", p50, "ms")
	r.set("apsp.delta_touched_blocks", float64(touched)/deltaN, "blocks/delta")
	r.set("qe.swap_evicted_rows", float64(evicted)/deltaN, "rows/delta")
	return nil
}

// traceShards fetches the replay's source rows through
// RemoteSource.RowCtx from two shard daemons cut from the served graph.
// Every row must equal the monolith oracle's.
func (r *runner) traceShards(ctx context.Context, tr *tracer, o *apsp.Oracle, reqs []request) error {
	var aux fleet
	err := r.fetchRows(ctx, tr, &aux, o, reqs)
	if err != nil {
		aux.killAll()
		return err
	}
	_, err = aux.stopAll()
	return err
}

func (r *runner) fetchRows(ctx context.Context, tr *tracer, aux *fleet, o *apsp.Oracle, reqs []request) error {
	urls, planPath, err := r.startShards(aux)
	if err != nil {
		return err
	}
	f, err := os.Open(planPath)
	if err != nil {
		return err
	}
	plan, err := shard.ReadPlan(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	src, err := shard.NewRemoteSource(shard.SourceConfig{Plan: plan, Addrs: urls, Reg: reg})
	if err != nil {
		return err
	}
	defer src.Close()
	buf := make([]graph.Weight, src.NumVertices())
	want := make([]graph.Weight, o.G.NumVertices())
	srcs := replaySources(reqs, replayN)
	for i, s := range srcs {
		t0 := time.Now()
		if _, err := src.RowCtx(ctx, s, buf); err != nil {
			return fmt.Errorf("shard row %d: %w", s, err)
		}
		tr.record("shard.row_fetch", int64(i+1), -1, t0, time.Now())
		o.Row(s, want)
		if !slices.Equal(buf, want) {
			r.fail("row %d fetched from the shards differs from the monolith oracle's", s)
		}
	}
	if err := r.setPercentiles("shard.row_fetch", tr.byName("shard.row_fetch"), "us", time.Microsecond); err != nil {
		return err
	}
	n := float64(len(srcs))
	c := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	r.set("shard.rpc_per_row", c("shard.rpc.requests")/n, "rpc/row")
	r.set("shard.stitched_frac", c("shard.rows.stitched")/n, "ratio")
	r.set("shard.retries", c("shard.rpc.retries"), "count")
	r.set("shard.hedges", c("shard.rpc.hedges"), "count")
	r.set("shard.errors", c("shard.rpc.errors"), "count")
	return nil
}

// startShards cuts the served graph into two shards with cmd/shardplan
// and starts one shard daemon per shard, returning their URLs and the
// plan manifest's path.
func (r *runner) startShards(f *fleet) ([]string, string, error) {
	out := filepath.Join(r.dir, "shards")
	if _, _, err := runCLI(r.binary("shardplan"), "-file", r.servePath, "-shards", "2", "-out", out); err != nil {
		return nil, "", err
	}
	var ds []*daemon
	for i := 0; i < 2; i++ {
		d, err := startDaemon(fmt.Sprintf("shard-%d", i), r.binary("oracled"), "/internal/health",
			"-shard-snapshot", filepath.Join(out, fmt.Sprintf("shard-%d.snap", i)))
		if err != nil {
			return nil, "", err
		}
		f.add(d)
		ds = append(ds, d)
	}
	var urls []string
	for _, d := range ds {
		if err := d.waitHealthy(r.client); err != nil {
			return nil, "", err
		}
		urls = append(urls, d.url)
	}
	return urls, filepath.Join(out, "plan.earplan"), nil
}

// traceMCB computes the MCB graph's basis in-process with cmd/mcb's
// defaults and reads the phase timers the mcb package keeps.
func (r *runner) traceMCB(ctx context.Context, tr *tracer) error {
	ph := obs.Default.Phases("mcb")
	names := []string{"candidates", "labels", "scan", "witness"}
	before := make([]time.Duration, len(names))
	for i, n := range names {
		before[i] = ph.Get(n)
	}
	t0 := time.Now()
	res, err := mcb.ComputeCtx(ctx, r.mg, mcb.Options{UseEar: true, Platform: mcb.Sequential, Workers: hetero.Workers(), Seed: r.seed})
	if err != nil {
		return err
	}
	tr.record("mcb", 0, -1, t0, time.Now())
	for i, n := range names {
		r.set("mcb."+n+"_ms", ms(ph.Get(n)-before[i]), "ms")
	}
	r.set("mcb.candidates", float64(res.NumCandidates), "count")
	r.set("mcb.search_ops", float64(res.SearchOps), "count")
	return nil
}

// setPercentiles sets name_p50_<unit> and name_p99_<unit> from durations.
func (r *runner) setPercentiles(name string, ds []time.Duration, unit string, per time.Duration) error {
	return r.setPercentilesF(name, durations(ds, per), unit)
}

func (r *runner) setPercentilesF(name string, xs []float64, unit string) error {
	for _, p := range []float64{0.5, 0.99} {
		v, err := percentile(xs, p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.set(fmt.Sprintf("%s_p%d_%s", name, int(p*100), unit), v, unit)
	}
	return nil
}

func durations(ds []time.Duration, per time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(per)
	}
	return out
}
