package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/mcb"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// checkQueries is how many point queries are checked after the window.
	checkQueries = 200
	// checkSources is how many sources get a reference Dijkstra row.
	checkSources = 32
	// maxSteal and maxRedo bound how much CPU time the hypervisor may
	// take from a measurement before it is repeated, and how often;
	// redoBackoff lets a busy spell on the host pass before the repeat.
	maxSteal    = 0.05
	maxRedo     = 4
	redoBackoff = 500 * time.Millisecond
)

// runner is one benchmark run of one workload.
type runner struct {
	w      workload
	seed   uint64
	window time.Duration
	traced bool
	bin    string
	work   string
	client *http.Client

	dir                           string       // this run's inputs, removed at the end
	g, bg, mg                     *graph.Graph // served, built by cmd/apsp, given to cmd/mcb
	servePath, buildPath, mcbPath string

	fleet    fleet
	front    string // base URL the load goes to
	chk      *checker
	varsWarm map[string]float64 // daemon counters when the window opened

	tally   tally
	correct bool
	metrics map[string]metric
}

// fail records a failed output check: the run still reports, with
// correct = false.
func (r *runner) fail(format string, args ...any) {
	r.correct = false
	fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", r.w.name, fmt.Sprintf(format, args...))
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.w.name, fmt.Sprintf(format, args...))
}

func (r *runner) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *runner) binary(name string) string { return filepath.Join(r.bin, name) }

func (r *runner) run() (_ *result, err error) {
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	// Runs follow one another; a run directory still here is from a run
	// that was killed before it could clean up.
	stale, _ := filepath.Glob(filepath.Join(r.work, "run-*"))
	for _, d := range stale {
		os.RemoveAll(d)
	}
	r.dir, err = os.MkdirTemp(r.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	defer func() {
		if err != nil {
			r.fleet.killAll()
		}
	}()
	t0 := time.Now()
	if err := r.makeInputs(); err != nil {
		return nil, err
	}
	r.logf("inputs %v: served graph %d vertices, %d edges; build graph %d vertices, %d edges; mcb graph %d vertices, %d edges",
		time.Since(t0), r.g.NumVertices(), r.g.NumEdges(), r.bg.NumVertices(), r.bg.NumEdges(), r.mg.NumVertices(), r.mg.NumEdges())
	t0 = time.Now()

	nOffline, nSetup := parts, setupReps
	if r.traced {
		nOffline, nSetup = 1, 1
	}
	// A set-up, offline repetition or part of the window during which the
	// hypervisor gave more than maxSteal of the machine's CPU time to other
	// guests timed the neighbours more than the program: it is done again,
	// up to maxRedo times a run.
	redo := 0
	discard := func(what string, a, b cpuTimes) bool {
		s := stolen(a, b)
		if s <= maxSteal || redo == maxRedo {
			return false
		}
		redo++
		r.logf("%s done again: %.0f%% of CPU time was stolen", what, 100*s)
		time.Sleep(redoBackoff)
		return true
	}
	var setups []float64
	for len(setups) < nSetup {
		if r.fleet.len() > 0 {
			if _, err := r.fleet.stopAll(); err != nil {
				return nil, err
			}
		}
		c0 := readCPU()
		d, err := r.setup()
		if err != nil {
			return nil, err
		}
		if !discard("set-up", c0, readCPU()) {
			setups = append(setups, d.Seconds())
		}
	}
	r.logf("setups %v: %v", time.Since(t0), setups)

	// The window runs in parts with an offline repetition before each, so
	// every metric's samples spread over the whole run.
	t0 = time.Now()
	r.chk = newChecker(r.g, r.checkSet())
	measure := r.traffic()
	warm := r.warm
	var off offline
	var ps, all []*loadResult
	for len(ps) < parts || len(off.builds) < nOffline {
		if len(off.builds) < nOffline {
			c0 := readCPU()
			build, mcbT, err := r.offlineRep(&off)
			if err != nil {
				return nil, err
			}
			if !discard("offline repetition", c0, readCPU()) {
				off.builds, off.mcbs = append(off.builds, build), append(off.mcbs, mcbT)
			}
		}
		if len(ps) == parts {
			continue
		}
		c1 := readCPU()
		l, err := measure(warm, r.window/parts)
		if err != nil {
			return nil, err
		}
		warm = func() error { return nil }
		if err := r.fleet.check(); err != nil {
			return nil, err
		}
		all = append(all, l) // every part counts for failures and checks
		if !discard("part of the window", c1, readCPU()) {
			ps = append(ps, l)
		}
	}
	if redo > 0 {
		r.logf("%d of the run's measurements were done again", redo)
	}
	load := combine(all)
	varsEnd, err := readVars(r.client, r.front)
	if err != nil {
		return nil, err
	}
	r.tally.merge(load.tally)
	r.checkAfter()
	if err := r.checkBasis(off.basis); err != nil {
		return nil, err
	}
	r.logf("offline: apsp %.3f s, mcb %.3f s", off.builds, off.mcbs)
	r.logf("load and checks %v: %d reads in %v", time.Since(t0), len(load.samples), load.window)
	if r.traced {
		t0 = time.Now()
		if err := r.layers(load, varsEnd); err != nil {
			return nil, err
		}
		r.logf("layers %v", time.Since(t0))
	}
	rss, err := r.fleet.stopAll()
	if err != nil {
		return nil, err
	}

	if !r.traced {
		st, err := summarize(ps)
		if err != nil {
			return nil, fmt.Errorf("latency: %w", err)
		}
		r.set("setup_s", median(setups), "s")
		r.set("build_s", median(off.builds), "s")
		r.set("mcb_s", median(off.mcbs), "s")
		r.set("throughput_rps", st.rps, "req/s")
		r.set("pairs_per_s", st.pairsPerS, "pairs/s")
		r.set("latency_p50_ms", st.p50, "ms")
		r.set("latency_p99_ms", st.p99, "ms")
		r.set("rss_mb", float64(rss)/(1<<20), "MB")
		r.set("success_frac", r.tally.successFrac(), "ratio")
	}
	return &result{
		Correct:   r.correct && r.tally.mismatched == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed(),
		Metrics:   r.metrics,
	}, nil
}

// makeInputs writes the seed's served, build and MCB graphs.
func (r *runner) makeInputs() error {
	for _, in := range []struct {
		spec graphSpec
		g    **graph.Graph
		path *string
		file string
	}{
		{r.w.serve, &r.g, &r.servePath, "serve.earg"},
		{buildSpec, &r.bg, &r.buildPath, "build.earg"},
		{mcbSpec, &r.mg, &r.mcbPath, "mcb.earg"},
	} {
		g, err := in.spec.generate(r.seed)
		if err != nil {
			return err
		}
		*in.g, *in.path = g, filepath.Join(r.dir, in.file)
		if err := graph.SaveBinary(*in.path, g); err != nil {
			return err
		}
	}
	return nil
}

var apspGraphRE = regexp.MustCompile(`: (\d+) vertices, (\d+) edges`)

// offline collects the offline commands' wall times over a run. Each
// repetition times cmd/apsp loading and building the build graph, then
// cmd/mcb computing the basis of the MCB graph, and checks what they
// print. The timed builds write no snapshot: writing 10–100 MB through
// the page cache varied by a fifth between identical runs on the machines
// this was sized on, more than the build itself; snapshot.write_ms in the
// traced run measures it.
type offline struct {
	builds, mcbs []float64
	basis        mcbSummary // what the first cmd/mcb run printed
}

// offlineRep runs cmd/apsp and then cmd/mcb once and returns their wall
// times in seconds.
func (r *runner) offlineRep(off *offline) (build, mcbT float64, err error) {
	out, wall, err := runCLI(r.binary("apsp"), "-file", r.buildPath)
	if err != nil {
		return 0, 0, err
	}
	build = wall.Seconds()
	m := apspGraphRE.FindStringSubmatch(out)
	if m == nil || m[1] != strconv.Itoa(r.bg.NumVertices()) || m[2] != strconv.Itoa(r.bg.NumEdges()) {
		r.fail("apsp read a different graph: %q", firstLine(out))
	}

	out, wall, err = runCLI(r.binary("mcb"), "-file", r.mcbPath)
	if err != nil {
		return 0, 0, err
	}
	s, err := parseMCB(out)
	if err != nil {
		return 0, 0, err
	}
	if off.basis == (mcbSummary{}) {
		off.basis = s
	} else if s != off.basis {
		r.fail("mcb runs disagree: %+v vs %+v", s, off.basis)
	}
	return build, wall.Seconds(), nil
}

// checkBasis certifies the basis cmd/mcb lists in a separate, untimed run
// and compares its weight with Horton's algorithm.
func (r *runner) checkBasis(sum mcbSummary) error {
	out, _, err := runCLI(r.binary("mcb"), "-file", r.mcbPath, "-print", strconv.Itoa(sum.dim))
	if err != nil {
		return err
	}
	if err := certifyBasis(r.mg, out, sum); err != nil {
		r.fail("mcb basis: %v", err)
	}
	if h := mcb.HortonMCB(r.mg, false, r.seed+7); h.TotalWeight != sum.weight {
		r.fail("Horton's basis weighs %g, mcb printed %g", h.TotalWeight, sum.weight)
	}
	return nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

func (r *runner) cacheArgs() []string {
	if r.w.cacheRows == 0 {
		return nil
	}
	return []string{"-cache-rows", strconv.Itoa(r.w.cacheRows)}
}

// setup starts the workload's daemon and returns the time from launching
// it until it answers its health check.
func (r *runner) setup() (time.Duration, error) {
	t0 := time.Now()
	front, err := startDaemon("oracled", r.binary("oracled"), "/healthz", append([]string{"-file", r.servePath}, r.cacheArgs()...)...)
	if err != nil {
		return 0, err
	}
	r.fleet.add(front)
	if err := front.waitHealthy(r.client); err != nil {
		return 0, err
	}
	r.front = front.url
	return time.Since(t0), nil
}

// checkSet is the sources given reference rows: the hottest Zipf sources
// and a seeded uniform sample.
func (r *runner) checkSet() []int32 {
	n := r.g.NumVertices()
	probe := newStream(r.seed, 1000, n, pointZipf)
	out := probe.hot(checkSources / 4)
	for len(out) < checkSources {
		out = append(out, probe.vertex())
	}
	return out
}

// traffic returns the function that measures one part of the window:
// after warm returns, it sends the workload's traffic for d. The request
// streams continue from one part to the next.
func (r *runner) traffic() func(warm func() error, d time.Duration) (*loadResult, error) {
	n := r.g.NumVertices()
	streams := make([]func() request, r.w.conns)
	for i := range streams {
		streams[i] = newStream(r.seed, i, n, r.w.traffic).next
	}
	return func(warm func() error, d time.Duration) (*loadResult, error) {
		return closedLoop(r.client, r.front, streams, r.chk, warm, d)
	}
}

// warm returns once the row cache's hit ratio over successive quarter
// seconds has settled, or after three seconds, and keeps the daemon's
// counters from that moment.
func (r *runner) warm() error {
	const step, maxSteps = 250 * time.Millisecond, 12
	prev := -1.0
	v0, err := readVars(r.client, r.front)
	if err != nil {
		return err
	}
	for i := 0; i < maxSteps; i++ {
		time.Sleep(step)
		if err := r.fleet.check(); err != nil {
			return err
		}
		v1, err := readVars(r.client, r.front)
		if err != nil {
			return err
		}
		h := v1["qe.cache.hits"] - v0["qe.cache.hits"]
		m := v1["qe.cache.misses"] - v0["qe.cache.misses"]
		r.varsWarm, v0 = v1, v1
		if h+m == 0 {
			continue
		}
		hr := h / (h + m)
		if prev >= 0 && math.Abs(hr-prev) < 0.02 {
			return nil
		}
		prev = hr
	}
	return nil
}

// readVars returns the numeric top-level members of a daemon's obs
// registry as /debug/vars exports it.
func readVars(cl *http.Client, base string) (map[string]float64, error) {
	resp, err := cl.Get(base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var all struct {
		Obs map[string]json.RawMessage `json:"obs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil, fmt.Errorf("decode %s/debug/vars: %w", base, err)
	}
	out := make(map[string]float64, len(all.Obs))
	for k, raw := range all.Obs {
		var v float64
		if json.Unmarshal(raw, &v) == nil {
			out[k] = v
		}
	}
	return out, nil
}

// checkAfter checks a sample of answers against Dijkstra on the served
// graph once the window is over.
func (r *runner) checkAfter() {
	probe := newStream(r.seed, 2000, r.g.NumVertices(), pointUniform)
	srcs := r.checkSet()
	for i := 0; i < checkQueries; i++ {
		q := request{u: srcs[i%len(srcs)], v: probe.vertex()}
		status, body, err := send(r.client, r.front, q)
		o := classify(status, err)
		if o == okAnswer {
			o = r.chk.check(q, body)
		}
		if o == mismatch {
			r.fail("d(%d,%d): %s", q.u, q.v, body)
		}
		r.tally.add(o)
	}
}
