package apsp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sssp"
)

// dijkstraAPTable is the forest sweep's reference: one heap Dijkstra per
// articulation point over the AP graph.
func dijkstraAPTable(o *Oracle) []graph.Weight {
	a := o.numA
	A := make([]graph.Weight, a*a)
	sc := sssp.NewScratch(a)
	for s := 0; s < a; s++ {
		sssp.DistancesOnly(o.apGraph, int32(s), A[s*a:(s+1)*a], sc)
	}
	return A
}

// apTableGraphs returns the integer-weighted multi-block graphs of one
// seed: the pathological families the block-cut stitching is most exposed
// to, chained into many-cut trees.
func apTableGraphs(seed uint64) map[string]*graph.Graph {
	cfg := gen.Config{MaxWeight: 9}
	rng := gen.NewRNG(seed)
	blocks := []*graph.Graph{
		gen.CycleNecklace(3+rng.Intn(3), 2+rng.Intn(3), cfg, rng),
		gen.LoopFlower(1+rng.Intn(4), 2+rng.Intn(3), cfg, rng),
		gen.BridgeChain(1+rng.Intn(4), 3+rng.Intn(3), cfg, rng),
		gen.GNM(6, 9, cfg, rng),
		gen.Ring(4+rng.Intn(4), cfg, rng),
	}
	return map[string]*graph.Graph{
		"chain-blocks": gen.ChainBlocks(blocks, cfg, rng),
		"bridge-chain": gen.BridgeChain(2+rng.Intn(6), 3+rng.Intn(4), cfg, rng),
		"loop-flower":  gen.LoopFlower(2+rng.Intn(5), 2+rng.Intn(4), cfg, rng),
		"pendants":     gen.AttachPendants(gen.CycleNecklace(4, 3, cfg, rng), 6, 3, cfg, rng),
	}
}

// standIns returns the AP-heavy Table 1 stand-ins at test scale.
func standIns(t testing.TB, scale float64) map[string]*graph.Graph {
	t.Helper()
	out := make(map[string]*graph.Graph)
	for _, name := range []string{"Rajat26", "cond_mat_2003", "as-22july06"} {
		spec, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = spec.Generate(scale, 1)
	}
	return out
}

func sameBits(a, b []graph.Weight) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("entry %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// checkAPTableExact requires the sweep's table at workers 1, 2 and 8, and
// the Banerjee baseline's, to be bit-identical to the Dijkstra reference,
// and the sweep to count one Relaxations unit per entry it writes.
func checkAPTableExact(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	o := NewOracle(g)
	ref := dijkstraAPTable(o)
	if err := sameBits(o.A, ref); err != nil {
		t.Fatalf("%s: sweep vs Dijkstra: %v", name, err)
	}
	work := o.Relaxations
	for _, blk := range o.Blocks {
		work -= blk.Ear.Relaxations
	}
	var written int64
	for i, d := range o.A {
		if d < Inf && i/o.numA != i%o.numA {
			written++
		}
	}
	if work != written {
		t.Fatalf("%s: AP sweep counted %d relaxations for %d entries written", name, work, written)
	}
	for _, w := range []int{2, 8} {
		if err := sameBits(NewOracleParallel(g, w).A, ref); err != nil {
			t.Fatalf("%s: workers=%d vs Dijkstra: %v", name, w, err)
		}
	}
	if err := sameBits(NewBanerjee(g, 2).A, o.A); err != nil {
		t.Fatalf("%s: Banerjee vs ours: %v", name, err)
	}
}

func TestAPTableMatchesDijkstra(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		for name, g := range apTableGraphs(seed) {
			checkAPTableExact(t, fmt.Sprintf("%s/seed=%d", name, seed), g)
		}
	}
	// At this scale Rajat26 has a = 107 and cond_mat_2003 a = 20;
	// as-22july06 is a single block (a = 0), the sweep's empty edge case.
	for name, g := range standIns(t, 0.01) {
		if a := NewOracle(g).NumArticulation(); a < 10 && name != "as-22july06" {
			t.Fatalf("%s: a = %d, too few articulation points to exercise the sweep", name, a)
		}
		checkAPTableExact(t, name, g)
	}
}

// TestAPTableFloatWeights covers non-integer weights, where the sweep and
// Dijkstra may add tied paths in different orders: they must agree within
// the differential harness's 1e-9 relative tolerance.
func TestAPTableFloatWeights(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := gen.NewRNG(seed)
		for name, g := range apTableGraphs(seed) {
			edges := append([]graph.Edge(nil), g.Edges()...)
			for i := range edges {
				edges[i].W = 0.1 + 10*rng.Float64()
			}
			o := NewOracle(graph.FromEdges(g.NumVertices(), edges))
			ref := dijkstraAPTable(o)
			for i := range ref {
				a, b := o.A[i], ref[i]
				if a != b && math.Abs(a-b) > 1e-9*(1+math.Abs(a)+math.Abs(b)) {
					t.Fatalf("%s/seed=%d: entry %d: sweep %v, Dijkstra %v", name, seed, i, a, b)
				}
			}
		}
	}
}

func TestBuildAPTableCancelled(t *testing.T) {
	o := NewOracle(standIns(t, 0.01)["Rajat26"])
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := o.buildAPTable(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("buildAPTable on a cancelled context: %v", err)
	}
}

// TestNewOracleCancelledInAPPhase cancels the build after its last block,
// so the first check the build meets is the AP sweep's: the constructor
// must return nil and the context error, and record no build metrics.
func TestNewOracleCancelledInAPPhase(t *testing.T) {
	g := standIns(t, 0.01)["Rajat26"]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocks, built := len(NewOracle(g).Blocks), 0
	builds := obs.Default.Counter("apsp.builds").Value()
	o, err := newOracle(ctx, g, 2, false, func(c context.Context, sub *graph.Graph) (*EarAPSP, error) {
		if built++; built == blocks {
			cancel()
		}
		return NewEarAPSP(sub), nil
	})
	if o != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got oracle %v, err %v; want nil, context.Canceled", o != nil, err)
	}
	if got := obs.Default.Counter("apsp.builds").Value(); got != builds {
		t.Fatalf("cancelled build recorded metrics (apsp.builds %d → %d)", builds, got)
	}
}

// TestApplyDeltaAPHeavy re-weights edges of a Rajat26 stand-in, one in a
// block with two or more cuts: the AP table must be rebuilt and match a
// from-scratch build bit for bit, before and after a snapshot round trip.
func TestApplyDeltaAPHeavy(t *testing.T) {
	g := standIns(t, 0.01)["Rajat26"]
	o := NewOracle(g)
	var ds []Delta
	for bi, cuts := range o.BCT.BlockCuts {
		if len(cuts) >= 2 {
			eid := o.Dec.Components[bi][0]
			ds = append(ds, Delta{Kind: DeltaWeight, Edge: eid, W: g.Edge(eid).W + 3})
			break
		}
	}
	if len(ds) == 0 {
		t.Fatal("stand-in has no block with two cuts")
	}
	ds = append(ds, Delta{Kind: DeltaWeight, Edge: int32(g.NumEdges() - 1), W: 1})

	n, res, err := o.ApplyDeltaParallel(context.Background(), ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.APRebuilt || res.RebuildFallback {
		t.Fatalf("APRebuilt=%v RebuildFallback=%v; want the cheap path with an AP rebuild", res.APRebuilt, res.RebuildFallback)
	}
	mg, err := MutateGraph(g, ds)
	if err != nil {
		t.Fatal(err)
	}
	want := NewOracle(mg)
	if err := sameBits(n.A, want.A); err != nil {
		t.Fatalf("delta vs rebuild: %v", err)
	}
	loaded, err := ReadOracle(bytes.NewReader(snapshotOf(t, n)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(loaded.A, want.A); err != nil {
		t.Fatalf("snapshot round trip vs rebuild: %v", err)
	}
	for u := int32(0); u < int32(mg.NumVertices()); u += 7 {
		for v := int32(0); v < int32(mg.NumVertices()); v += 5 {
			if a, b := loaded.Query(u, v), want.Query(u, v); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("d(%d,%d): delta+snapshot %v, rebuild %v", u, v, a, b)
			}
		}
	}
}

// BenchmarkOracleBuildAPHeavy builds the Rajat26 stand-in (×0.02), whose
// many multi-cut blocks make the AP table a large share of the build.
func BenchmarkOracleBuildAPHeavy(b *testing.B) {
	g := standIns(b, 0.02)["Rajat26"]
	b.ReportAllocs()
	b.ResetTimer()
	var aptable float64
	for i := 0; i < b.N; i++ {
		o := NewOracleParallel(g, 2)
		aptable += float64(o.BuildPhases.Get("aptable").Microseconds())
	}
	b.ReportMetric(aptable/float64(b.N), "aptable-us/op")
}
