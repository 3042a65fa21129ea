package repro

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"

	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/mcb"
	"repro/internal/shard"
	"repro/internal/sssp"
)

// TestFacadeEndToEnd exercises the public surface the README documents:
// build, reduce, query, and basis computation through the facade only.
func TestFacadeEndToEnd(t *testing.T) {
	b := NewGraphBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(3, 0, 4)
	b.AddEdge(0, 4, 1)
	b.AddEdge(4, 2, 1)
	b.AddEdge(3, 5, 9) // pendant
	g := b.Build()

	red, err := ReduceGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumRemoved() == 0 {
		t.Fatal("expected degree-2 removals")
	}

	oracle, err := ShortestPaths(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.Query(1, 5); d != 1+1+1+3+9 && d != 2+3+9 && d <= 0 {
		t.Fatalf("query result suspicious: %v", d)
	}
	// spot-check against a hand computation: d(1,5) = min path weight
	if d := oracle.Query(5, 5); d != 0 {
		t.Fatal("self distance nonzero")
	}

	basis, err := MinimumCycleBasis(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(basis.Cycles) != 2 { // m-n+1 = 7-6+1 = 2
		t.Fatalf("basis size %d", len(basis.Cycles))
	}

	opts := MCBOptions{UseEar: false, Platform: mcb.GPU}
	basis2, err := MinimumCycleBasisOpts(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if basis2.TotalWeight != basis.TotalWeight {
		t.Fatalf("facade options changed the MCB weight: %v vs %v",
			basis2.TotalWeight, basis.TotalWeight)
	}
}

func TestFacadeEarDecompose(t *testing.T) {
	rng := NewRNG(4)
	g := gen.Ring(8, GenConfig{MaxWeight: 3}, rng)
	ears, err := EarDecompose(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ears) != 1 {
		t.Fatalf("ring should be one ear, got %d", len(ears))
	}
}

// TestFacadeReduceAndEars: a 15-ring reduces to one kept vertex (14
// removed) and decomposes into a single ear.
func TestFacadeReduceAndEars(t *testing.T) {
	ring := gen.Ring(15, GenConfig{MaxWeight: 3}, NewRNG(7))
	red, err := ReduceGraph(ring)
	if err != nil {
		t.Fatal(err)
	}
	if red.NumRemoved() != 14 {
		t.Fatalf("ring reduction removed %d", red.NumRemoved())
	}
	ears, err := EarDecompose(ring)
	if err != nil {
		t.Fatal(err)
	}
	if len(ears) != 1 {
		t.Fatalf("ring has %d ears", len(ears))
	}
}

// TestFacadeShortestPathsMatchesBellmanFord checks the facade oracle on a
// subdivided random graph against Bellman–Ford from one source.
func TestFacadeShortestPathsMatchesBellmanFord(t *testing.T) {
	cfg := GenConfig{MaxWeight: 7}
	rng := NewRNG(5)
	g := gen.Subdivide(gen.GNM(25, 45, cfg, rng), 0.5, 2, cfg, rng)
	o, err := ShortestPaths(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := sssp.BellmanFord(g, 0)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if o.Query(0, v) != ref[v] {
			t.Fatalf("d(0,%d) = %v, Bellman–Ford %v", v, o.Query(0, v), ref[v])
		}
	}
}

// TestFacadeMCBOptionVariantsAgree: the default (ear-reduced) basis and
// the unreduced multicore one have the cycle-space dimension and the same
// total weight on a random graph.
func TestFacadeMCBOptionVariantsAgree(t *testing.T) {
	cfg := GenConfig{MaxWeight: 5}
	g := gen.GNM(20, 32, cfg, NewRNG(6))
	res, err := MinimumCycleBasis(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dim != mcb.Dim(g) {
		t.Fatalf("dim %d, want %d", res.Dim, mcb.Dim(g))
	}
	res2, err := MinimumCycleBasisOpts(g, MCBOptions{UseEar: false, Platform: mcb.Multicore})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWeight != res2.TotalWeight {
		t.Fatalf("option variants disagree on weight: %v vs %v", res.TotalWeight, res2.TotalWeight)
	}
}

func TestFacadeNilGraphErrors(t *testing.T) {
	if _, err := ShortestPaths(nil, 1); err == nil {
		t.Fatal("nil graph should error")
	}
	if _, err := MinimumCycleBasis(nil); err == nil {
		t.Fatal("nil graph should error")
	}
	if _, err := ReduceGraph(nil); err == nil {
		t.Fatal("nil graph should error")
	}
	if _, err := EarDecompose(nil); err == nil {
		t.Fatal("nil graph should error")
	}
}

// TestFacadeNilInputs: the nil-graph check sits in ShortestPathsCtx and
// MinimumCycleBasisOptsCtx; every option and context variant that routes
// through them returns errNilGraph.
func TestFacadeNilInputs(t *testing.T) {
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"ShortestPathsOpts":    func() error { _, err := ShortestPathsOpts(nil, APSPOptions{Workers: 1}); return err },
		"ShortestPathsCtx":     func() error { _, err := ShortestPathsCtx(ctx, nil, APSPOptions{Workers: 1}); return err },
		"MinimumCycleBasisCtx": func() error { _, err := MinimumCycleBasisCtx(ctx, nil); return err },
		"MinimumCycleBasisOpts": func() error {
			_, err := MinimumCycleBasisOpts(nil, MCBOptions{UseEar: true, Platform: mcb.Multicore})
			return err
		},
		"MinimumCycleBasisOptsCtx": func() error {
			_, err := MinimumCycleBasisOptsCtx(ctx, nil, MCBOptions{UseEar: false, Platform: mcb.GPU})
			return err
		},
	} {
		if err := call(); !errors.Is(err, errNilGraph) {
			t.Fatalf("%s(nil) = %v, want errNilGraph", name, err)
		}
	}
}

func TestLoadGraphRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1 2\n1 2 3\n2 0 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatal("load wrong")
	}
}

func TestFacadeBCAndVerifiers(t *testing.T) {
	rng := NewRNG(9)
	cfg := GenConfig{MaxWeight: 4}
	g := gen.Subdivide(gen.GNM(20, 32, cfg, rng), 0.4, 2, cfg, rng)

	res := BetweennessCentrality(g, 0)
	if len(res.Scores) != g.NumVertices() {
		t.Fatal("bc scores length")
	}

	oracle, err := ShortestPaths(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// verify a distance row assembled from oracle queries
	dist := make([]Weight, g.NumVertices())
	for v := range dist {
		dist[v] = oracle.Query(0, int32(v))
	}
	if err := VerifyDistances(g, 0, dist); err != nil {
		t.Fatal(err)
	}
	// verify a path
	w := oracle.Path(0, int32(g.NumVertices()-1))
	if w != nil {
		if err := VerifyPath(g, w, oracle.Query(0, int32(g.NumVertices()-1))); err != nil {
			t.Fatal(err)
		}
	}
	basis, err := MinimumCycleBasis(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCycleBasis(g, basis); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "graph G {") {
		t.Fatal("dot output wrong")
	}
}

// TestFacadeShardedServing drives the sharded-serving surface through
// the facade only: plan a 2-shard cluster, round-trip the manifest and
// shard snapshots through their wire encodings, serve both shards over
// HTTP, and check the fan-out engine agrees with direct oracle queries.
func TestFacadeShardedServing(t *testing.T) {
	b := NewGraphBuilder(8)
	for _, e := range [][3]int32{
		{0, 1, 2}, {1, 2, 3}, {2, 0, 1}, // block A
		{2, 3, 5},                       // bridge
		{3, 4, 1}, {4, 5, 2}, {5, 3, 4}, // block B
		{5, 6, 1}, {6, 7, 2}, {7, 5, 3}, // block C
	} {
		b.AddEdge(e[0], e[1], Weight(e[2]))
	}
	g := b.Build()
	oracle, err := ShortestPaths(g, 1)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := PlanShards(oracle, ShardPlanOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := WriteShardPlan(&mbuf, plan); err != nil {
		t.Fatal(err)
	}
	if plan, err = ReadShardPlan(&mbuf); err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, plan.NumShards)
	for sid := int32(0); sid < plan.NumShards; sid++ {
		var sbuf bytes.Buffer
		meta := ShardMeta{Epoch: plan.Epoch, Shard: sid, NumShards: plan.NumShards}
		if _, err := WriteShardSnapshot(&sbuf, oracle, meta, plan.OwnedMask(sid)); err != nil {
			t.Fatal(err)
		}
		sb, err := ReadShardSnapshot(&sbuf)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		shard.NewHandler(sb).Register(mux)
		ts := httptest.NewServer(mux)
		defer ts.Close()
		addrs[sid] = ts.URL
	}

	src, err := NewRemoteRowSource(ShardSourceConfig{Plan: plan, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	engine := NewQueryEngine(src, EngineConfig{CacheRows: 16})
	ctx := context.Background()
	defer engine.Close(ctx)

	for u := int32(0); u < 8; u++ {
		for v := int32(0); v < 8; v++ {
			got, err := engine.Query(ctx, u, v)
			if err != nil {
				t.Fatalf("query(%d,%d): %v", u, v, err)
			}
			if want := oracle.Query(u, v); got != want {
				t.Fatalf("sharded query(%d,%d) = %v, oracle %v", u, v, got, want)
			}
		}
	}
	for _, st := range src.Status() {
		if !st.Healthy {
			t.Fatalf("shard %d unhealthy: %+v", st.ID, st)
		}
	}
}
