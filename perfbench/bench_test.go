package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestPercentileReportsOnlyWithTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if v, err := percentile(xs[980:], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(xs[981:], 0.5); err == nil {
		t.Fatal("p50 of 19 samples must be refused")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
}

func TestRecordKeepsLatencyAndLag(t *testing.T) {
	var w worker
	due := time.Unix(100, 0)
	w.record(okAnswer, request{}, 30*time.Millisecond, 20*time.Millisecond, due.Add(30*time.Millisecond))
	if w.samples[0].lat != 30 || w.lag[0] != 20 {
		t.Fatalf("recorded latency %vms, lag %vms; want 30 and 20", w.samples[0].lat, w.lag[0])
	}
}

// part builds one second-long part of a window whose i-th read of n
// finishes (i+1)/n seconds in and takes lat(i) ms.
func part(k, n int, lat func(i int) float64) *loadResult {
	start := time.Unix(int64(10*k), 0)
	l := &loadResult{start: start, window: time.Second}
	for i := 0; i < n; i++ {
		done := start.Add(time.Duration(i+1) * time.Second / time.Duration(n))
		l.samples = append(l.samples, sample{done: done, lat: lat(i), ok: true, pairs: 4})
	}
	return l
}

func TestSummarizeTakesMediansOverParts(t *testing.T) {
	one := func(int) float64 { return 1 }
	ps := []*loadResult{part(0, 1000, one), part(1, 1000, one),
		part(2, 200, func(int) float64 { return 50 }), // a disturbed part
		part(3, 1000, one), part(4, 1000, one)}
	late := sample{done: ps[4].start.Add(3 * time.Second), lat: 99, ok: true, pairs: 4}
	ps[4].samples = append(ps[4].samples, late) // finished after its part
	st, err := summarize(ps)
	if err != nil || st.rps != 1000 || st.pairsPerS != 4000 || st.p50 != 1 {
		t.Fatalf("window stats %+v, %v; want 1000 req/s, 4000 pairs/s, p50 1ms", st, err)
	}
	if st.p99 != 50 { // the disturbed part is too small for a p99: all parts together
		t.Fatalf("p99 %v, want 50", st.p99)
	}

	// Parts of 1000 reads each have a p99, and the median of those is
	// reported: part k's slowest 15 reads take 10+k ms, so the median is
	// 12 where the p99 of all parts together would be 11.
	var even []*loadResult
	for k := 0; k < 5; k++ {
		even = append(even, part(k, 1000, func(i int) float64 {
			if i < 15 {
				return float64(10 + k)
			}
			return 1
		}))
	}
	if st, err := summarize(even); err != nil || st.p99 != 12 {
		t.Fatalf("p99 %v, %v; want the median of the parts' p99s, 12", st.p99, err)
	}

	if _, err := summarize([]*loadResult{part(0, 10, one)}); err == nil {
		t.Fatal("a part without enough samples for a median must fail")
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{Name: "registry", Parent: -1, Start: 0, End: 100},
		{Name: "row", Parent: 0, Start: 10, End: 30},
		{Name: "row", Parent: 0, Start: 20, End: 50},   // overlaps the first
		{Name: "row", Parent: 0, Start: 90, End: 120},  // clipped at 100
		{Name: "inner", Parent: 1, Start: 12, End: 14}, // grandchild: not subtracted again
		{Name: "registry", Parent: -1, Start: 200, End: 260},
	}
	got := selfTimes(spans, "registry")
	want := []time.Duration{50, 60}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	if got := selfTimes(spans, "row"); got[0] != 18 {
		t.Fatalf("row self time %v, want 18", got[0])
	}
}

func TestRefusalsErrorsAndMismatchesCountAsFailures(t *testing.T) {
	for status, want := range map[int]outcome{200: okAnswer, 503: refused, 504: refused, 500: errored, 400: errored} {
		if got := classify(status, nil); got != want {
			t.Errorf("classify(%d) = %v, want %v", status, got, want)
		}
	}
	if classify(200, fmt.Errorf("reset")) != errored {
		t.Error("a transport error must count as errored")
	}

	// Path 0-1-2 with weights 1 and 2; vertex 3 is unreachable.
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}})
	chk := newChecker(g, []int32{0})
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 4 {
		case 1:
			fmt.Fprint(w, `{"u":0,"v":2,"reachable":true,"distance":3}`)
		case 2:
			fmt.Fprint(w, `{"u":0,"v":2,"reachable":true,"distance":4}`) // wrong
		case 3:
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusGatewayTimeout)
		}
	}))
	defer srv.Close()
	fixed := func() request { return request{u: 0, v: 2} }
	res, err := closedLoop(srv.Client(), srv.URL, []func() request{fixed}, chk,
		func() error { return nil }, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.tally
	if tl.attempted < 8 || tl.mismatched == 0 || tl.refused == 0 || tl.errored != 0 {
		t.Fatalf("tally %+v: want mismatches and refusals and no errors", tl)
	}
	okReads := 0
	for _, s := range res.samples {
		if s.ok {
			okReads++
		}
	}
	if tl.failed() != tl.mismatched+tl.refused || okReads != tl.attempted-tl.failed() {
		t.Fatalf("tally %+v with %d ok reads does not add up", tl, okReads)
	}
	if f := tl.successFrac(); math.Abs(f-float64(okReads)/float64(tl.attempted)) > 1e-12 {
		t.Fatalf("success fraction %v", f)
	}

	unreachable := request{sources: []int32{0}, targets: []int32{2, 3}}
	if o := chk.check(unreachable, []byte(`{"distances":[[3,-1]]}`)); o != okAnswer {
		t.Fatalf("batch with -1 for an unreachable pair: %v", o)
	}
	if o := chk.check(unreachable, []byte(`{"distances":[[3,7]]}`)); o != mismatch {
		t.Fatalf("batch with a distance to an unreachable vertex: %v", o)
	}
	if o := chk.checkPoint(0, 3, []byte(`{"u":0,"v":3,"reachable":false}`)); o != okAnswer {
		t.Fatalf("unreachable point: %v", o)
	}
}

func TestSameSeedSameInputsOtherSeedOtherInputs(t *testing.T) {
	draw := func(w workload, seed uint64) (edges [3][]graph.Edge, reqs []request, deltas []string) {
		for i, spec := range []graphSpec{w.serve, buildSpec, mcbSpec} {
			g, err := spec.generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			edges[i] = g.Edges()
		}
		st := newStream(seed, 0, 1000, w.traffic)
		for i := 0; i < 50; i++ {
			reqs = append(reqs, st.next())
		}
		ds := newDeltaStream(seed, len(edges[0]))
		for i := 0; i < 20; i++ {
			deltas = append(deltas, fmt.Sprint(ds.next()))
		}
		return
	}
	for _, w := range workloads {
		e1, r1, d1 := draw(w, 1)
		e2, r2, d2 := draw(w, 1)
		if !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(d1, d2) {
			t.Errorf("%s: seed 1 drew different inputs twice", w.name)
		}
		e3, r3, d3 := draw(w, 2)
		if reflect.DeepEqual(e1[0], e3[0]) || reflect.DeepEqual(e1[1], e3[1]) || reflect.DeepEqual(e1[2], e3[2]) ||
			reflect.DeepEqual(r1, r3) || reflect.DeepEqual(d1, d3) {
			t.Errorf("%s: seeds 1 and 2 drew the same inputs", w.name)
		}
	}
}

func TestCertifyBasis(t *testing.T) {
	// K4: dimension 6 − 4 + 1 = 3; the three triangles through vertex 0
	// form a basis, while the 4-cycle 0-1-2-3 is the sum of two of them.
	g := graph.FromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 0, V: 3, W: 1},
		{U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}, {U: 1, V: 3, W: 1},
	})
	listing := func(cycles ...string) string {
		var b strings.Builder
		for i, c := range cycles {
			fmt.Fprintf(&b, "  cycle %d: weight %d, %d edges: %s\n", i, strings.Count(c, "("), strings.Count(c, "("), c)
		}
		return b.String()
	}
	sum := mcbSummary{dim: 3, cycles: 3, weight: 9}
	good := listing("(0-1) (1-2) (0-2)", "(0-2) (2-3) (0-3)", "(0-1) (1-3) (0-3)")
	if err := certifyBasis(g, good, sum); err != nil {
		t.Fatalf("valid basis refused: %v", err)
	}
	dep := listing("(0-1) (1-2) (0-2)", "(0-2) (2-3) (0-3)", "(0-1) (1-2) (2-3) (0-3)")
	if err := certifyBasis(g, dep, mcbSummary{dim: 3, cycles: 3, weight: 10}); err == nil || !strings.Contains(err.Error(), "depends") {
		t.Fatalf("dependent basis: %v", err)
	}
	open := listing("(0-1) (1-2)", "(0-2) (2-3) (0-3)", "(0-1) (1-3) (0-3)")
	if err := certifyBasis(g, open, mcbSummary{dim: 3, cycles: 3, weight: 8}); err == nil {
		t.Fatal("a path is not a cycle")
	}
	if err := certifyBasis(g, good, mcbSummary{dim: 2, cycles: 2, weight: 9}); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}
