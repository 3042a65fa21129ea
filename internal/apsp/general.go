package apsp

import (
	"context"
	"math/bits"

	"repro/internal/bcc"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/obs"
)

// BlockAPSP is the per-biconnected-component state of the general
// algorithm: the component subgraph and its ear-reduced APSP. Parent→local
// vertex resolution goes through the oracle's shared flat locIndex
// (layout.go) instead of a per-block hash map.
type BlockAPSP struct {
	Sub *graph.Subgraph
	Ear *EarAPSP

	bi  int32     // this block's ID in the oracle's Blocks slice
	loc *locIndex // shared flat parent→local index
}

// local resolves a parent vertex ID to this block's local ID (-1 outside).
func (b *BlockAPSP) local(v int32) int32 { return b.loc.local(b.bi, v) }

// QueryParent answers an in-block distance query in parent vertex IDs.
func (b *BlockAPSP) QueryParent(u, v int32) graph.Weight {
	lu, lv := b.local(u), b.local(v)
	if lu < 0 || lv < 0 {
		return Inf
	}
	return b.Ear.Query(lu, lv)
}

// Oracle is the paper's general-graph APSP structure (Section 2.2): one
// ear-reduced APSP per biconnected component, an a×a distance table A over
// the articulation points, and block-cut tree navigation to find, for any
// cross-component pair, the two gateway articulation points of the unique
// tree path between their blocks.
//
// Storage is O(a² + Σ nr_i²), the paper's memory bound, rather than O(n²).
type Oracle struct {
	G      *graph.Graph
	Dec    *bcc.Decomposition
	BCT    *bcc.BlockCutTree
	Blocks []*BlockAPSP

	// A is the articulation-point table, a×a row-major over BCT.CutVertices
	// indices. apGraph is the graph it was computed on (one vertex per AP,
	// per-block clique edges), retained for path reconstruction;
	// apEdgeBlock maps each of its edges to the contributing block.
	A           []graph.Weight
	numA        int
	apGraph     *graph.Graph
	apEdgeBlock []int32

	// loc is the flat parent→local vertex index shared by every block.
	loc *locIndex

	// Bipartite block-cut forest navigation. Node IDs: blocks are
	// [0, B), cut vertices are [B, B+a).
	nodeParent []int32
	nodeDepth  []int32
	nodeRoot   []int32
	// up is the binary-lifting ancestor table, flattened row-major:
	// up[k*numNodes+v] is v's 2^k-th ancestor (-1 past the root).
	up       []int32
	upLevels int

	// Relaxations is the total work of construction: the per-block
	// Dijkstra edge relaxations of the processing phase, plus one unit per
	// articulation-point table entry the forest sweep writes (buildAPTable).
	Relaxations int64

	// BuildPhases times the construction phases of this oracle
	// (bcc/blocks/forest/aptable); the same durations accumulate into
	// obs.Default under "apsp.build" for process-wide export.
	BuildPhases *obs.Phases
}

// NewOracle builds the oracle sequentially.
func NewOracle(g *graph.Graph) *Oracle {
	o, _ := newOracle(context.Background(), g, 1, func(_ context.Context, sub *graph.Graph) (*EarAPSP, error) {
		return NewEarAPSP(sub), nil
	})
	return o
}

// NewOracleParallel builds the oracle with the per-block processing phase
// parallelised over real goroutine workers (each block's per-source
// Dijkstra loop is itself the unit of work, mirroring the paper's
// per-component work-units); the articulation-point table's per-source
// forest sweeps fan out over the same workers.
func NewOracleParallel(g *graph.Graph, workers int) *Oracle {
	o, _ := NewOracleParallelCtx(context.Background(), g, workers)
	return o
}

// NewOracleParallelCtx is NewOracleParallel with cooperative cancellation:
// the build checks ctx between biconnected components, between the
// per-source Dijkstra units inside each component, and between the
// per-source sweeps of the articulation-point table, so cancelling a
// request or hitting a deadline abandons a long build promptly. The
// bcc and forest phases run to completion once started. On cancellation
// it returns a nil oracle and the context error; no build metrics are
// recorded for abandoned builds. With a background context it never fails.
func NewOracleParallelCtx(ctx context.Context, g *graph.Graph, workers int) (*Oracle, error) {
	return newOracle(ctx, g, workers, func(c context.Context, sub *graph.Graph) (*EarAPSP, error) {
		return NewEarAPSPParallelCtx(c, sub, workers)
	})
}

// newOracle runs the four build phases; workers parallelises the AP-table
// sweep (mk owns the per-block parallelism).
func newOracle(ctx context.Context, g *graph.Graph, workers int, mk func(context.Context, *graph.Graph) (*EarAPSP, error)) (*Oracle, error) {
	phases := &obs.Phases{}
	stop := phases.Start("bcc")
	dec := bcc.Compute(g)
	bct := bcc.BuildBlockCutTree(g, dec)
	stop()
	o := &Oracle{G: g, Dec: dec, BCT: bct, numA: len(bct.CutVertices), BuildPhases: phases}
	stop = phases.Start("blocks")
	subs := dec.Subgraphs(g)
	o.Blocks = make([]*BlockAPSP, len(subs))
	for i, sub := range subs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ea, err := mk(ctx, sub.G)
		if err != nil {
			return nil, err
		}
		blk := &BlockAPSP{Sub: sub, Ear: ea}
		o.Relaxations += blk.Ear.Relaxations
		o.Blocks[i] = blk
	}
	o.buildLocIndex()
	stop()
	stop = phases.Start("forest")
	o.buildForest()
	stop()
	stop = phases.Start("aptable")
	err := o.buildAPTable(ctx, workers)
	stop()
	if err != nil {
		return nil, err
	}
	global := obs.Default.Phases("apsp.build")
	for _, name := range []string{"bcc", "blocks", "forest", "aptable"} {
		global.Record(name, phases.Get(name))
	}
	obs.Default.Counter("apsp.builds").Inc()
	obs.Default.Counter("apsp.build.relaxations").Add(o.Relaxations)
	return o, nil
}

// buildForest roots the bipartite block-cut forest and prepares binary
// lifting for LCA/level-ancestor queries.
func (o *Oracle) buildForest() {
	numB := len(o.Blocks)
	n := numB + o.numA
	o.nodeParent = make([]int32, n)
	o.nodeDepth = make([]int32, n)
	o.nodeRoot = make([]int32, n)
	for i := range o.nodeParent {
		o.nodeParent[i] = -1
		o.nodeRoot[i] = -1
	}
	var queue []int32
	for start := 0; start < n; start++ {
		if o.nodeRoot[start] >= 0 {
			continue
		}
		o.nodeRoot[start] = int32(start)
		o.nodeDepth[start] = 0
		queue = append(queue[:0], int32(start))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			var neigh []int32
			if int(v) < numB {
				for _, c := range o.BCT.BlockCuts[v] {
					neigh = append(neigh, int32(numB)+c)
				}
			} else {
				for _, b := range o.BCT.CutBlocks[v-int32(numB)] {
					neigh = append(neigh, b)
				}
			}
			for _, u := range neigh {
				if o.nodeRoot[u] >= 0 {
					continue
				}
				o.nodeRoot[u] = o.nodeRoot[v]
				o.nodeParent[u] = v
				o.nodeDepth[u] = o.nodeDepth[v] + 1
				queue = append(queue, u)
			}
		}
	}
	o.buildLifting()
}

// buildLifting derives the binary-lifting ancestor table from nodeParent.
// It is shared by construction and snapshot load: the table is a pure
// function of the parent array, so snapshots store only the latter. The
// table is one flat row-major array (level k at up[k*n : (k+1)*n]) — a
// single allocation the LCA walk strides through without pointer hops.
func (o *Oracle) buildLifting() {
	n := len(o.nodeParent)
	levels := 1
	if n > 1 {
		levels = bits.Len(uint(n))
	}
	o.upLevels = levels
	o.up = make([]int32, levels*n)
	copy(o.up[:n], o.nodeParent)
	for k := 1; k < levels; k++ {
		prev, cur := o.up[(k-1)*n:k*n], o.up[k*n:(k+1)*n]
		for v := 0; v < n; v++ {
			p := prev[v]
			if p < 0 {
				cur[v] = -1
			} else {
				cur[v] = prev[p]
			}
		}
	}
}

func (o *Oracle) ancestorAtDepth(v int32, depth int32) int32 {
	n := int32(len(o.nodeParent))
	diff := o.nodeDepth[v] - depth
	for k := int32(0); diff > 0; k++ {
		if diff&1 == 1 {
			v = o.up[k*n+v]
		}
		diff >>= 1
	}
	return v
}

func (o *Oracle) lca(u, v int32) int32 {
	if o.nodeDepth[u] > o.nodeDepth[v] {
		u, v = v, u
	}
	v = o.ancestorAtDepth(v, o.nodeDepth[u])
	if u == v {
		return u
	}
	n := int32(len(o.nodeParent))
	for k := int32(o.upLevels) - 1; k >= 0; k-- {
		if o.up[k*n+u] != o.up[k*n+v] {
			u = o.up[k*n+u]
			v = o.up[k*n+v]
		}
	}
	return o.nodeParent[u]
}

// gatewayCut returns the articulation-point index of the first cut node on
// the forest path from block node b toward node t (b != t, same tree).
func (o *Oracle) gatewayCut(b, t int32) int32 {
	numB := int32(len(o.Blocks))
	l := o.lca(b, t)
	var cutNode int32
	if l == b {
		cutNode = o.ancestorAtDepth(t, o.nodeDepth[b]+1)
	} else {
		cutNode = o.nodeParent[b]
	}
	return cutNode - numB
}

// apAt reads the AP table entry for AP indices i, j.
func (o *Oracle) apAt(i, j int32) graph.Weight { return o.A[int(i)*o.numA+int(j)] }

// Query returns d_G(u, v) for arbitrary vertices. Out-of-range vertices
// report Inf silently; new code should prefer QueryChecked, which surfaces
// them as *QueryError instead.
func (o *Oracle) Query(u, v int32) graph.Weight {
	if u < 0 || int(u) >= o.G.NumVertices() || v < 0 || int(v) >= o.G.NumVertices() {
		return Inf
	}
	if u == v {
		return 0
	}
	iu, iv := o.BCT.CutIndex[u], o.BCT.CutIndex[v]
	switch {
	case iu >= 0 && iv >= 0:
		return o.apAt(iu, iv)
	case iu >= 0:
		return o.queryAPRegular(iu, v)
	case iv >= 0:
		return o.queryAPRegular(iv, u)
	}
	bu, bv := o.BCT.BlockOf[u], o.BCT.BlockOf[v]
	if bu < 0 || bv < 0 {
		return Inf // isolated vertex
	}
	if bu == bv {
		return o.Blocks[bu].QueryParent(u, v)
	}
	if o.nodeRoot[bu] != o.nodeRoot[bv] {
		return Inf // different connected components
	}
	a1 := o.gatewayCut(bu, bv)
	a2 := o.gatewayCut(bv, bu)
	d1 := o.Blocks[bu].QueryParent(u, o.BCT.CutVertices[a1])
	d2 := o.Blocks[bv].QueryParent(o.BCT.CutVertices[a2], v)
	mid := o.apAt(a1, a2)
	return addInf(d1, mid, d2)
}

// queryAPRegular computes d(AP, regular vertex).
func (o *Oracle) queryAPRegular(ia int32, v int32) graph.Weight {
	bv := o.BCT.BlockOf[v]
	if bv < 0 {
		return Inf
	}
	apVertex := o.BCT.CutVertices[ia]
	blk := o.Blocks[bv]
	if blk.local(apVertex) >= 0 {
		return blk.QueryParent(apVertex, v)
	}
	numB := int32(len(o.Blocks))
	apNode := numB + ia
	if o.nodeRoot[bv] != o.nodeRoot[apNode] {
		return Inf
	}
	a2 := o.gatewayCut(bv, apNode)
	d2 := blk.QueryParent(o.BCT.CutVertices[a2], v)
	return addInf(o.apAt(ia, a2), d2, 0)
}

// NumArticulation returns a, the number of articulation points.
func (o *Oracle) NumArticulation() int { return o.numA }

// MaterializeBlockTables computes the full per-block distance tables A_i
// (Stage 1 post-processing) and returns them; the benchmark harness uses
// this as the measured post-processing workload and the memory model counts
// its Σ n_i² entries. Each work-unit is one biconnected component, sorted
// by size, as in Section 2.3.
func (o *Oracle) MaterializeBlockTables(workers int) [][]graph.Weight {
	tables := make([][]graph.Weight, len(o.Blocks))
	hetero.ParallelFor(workers, len(o.Blocks), func(_, bi int) {
		tables[bi] = o.Blocks[bi].Ear.Materialize()
	})
	return tables
}

// MemoryPlan reports the paper's Table 1 memory model: entries (and bytes
// at 4 bytes per stored distance, the paper's float precision) for this
// oracle (a² + Σ n_i²) versus the dense n² table.
type MemoryPlan struct {
	OursEntries int64
	MaxEntries  int64
}

// Bytes returns the two sides in bytes (4-byte entries, as the paper's MB
// figures imply).
func (m MemoryPlan) Bytes() (ours, max int64) { return m.OursEntries * 4, m.MaxEntries * 4 }

// Memory computes the plan for this oracle.
func (o *Oracle) Memory() MemoryPlan {
	var ours int64
	ours += int64(o.numA) * int64(o.numA)
	for _, blk := range o.Blocks {
		ni := int64(blk.Sub.G.NumVertices())
		ours += ni * ni
	}
	n := int64(o.G.NumVertices())
	return MemoryPlan{OursEntries: ours, MaxEntries: n * n}
}

// ReducedMemory reports the tighter accounting this implementation actually
// uses (a² + Σ nr_i² over reduced block sizes), shown alongside the paper's
// model in the Table 1 harness.
func (o *Oracle) ReducedMemory() int64 {
	var ours int64
	ours += int64(o.numA) * int64(o.numA)
	for _, blk := range o.Blocks {
		nr := int64(blk.Ear.Red.R.NumVertices())
		ours += nr * nr
	}
	return ours
}

// NodesRemoved returns the total vertices removed by ear reduction across
// blocks — Table 1's "Nodes Removed" column. A vertex shared by several
// blocks (an articulation point) is never removed; interior chain vertices
// belong to exactly one block, so the per-block sum counts each removed
// vertex once.
func (o *Oracle) NodesRemoved() int {
	total := 0
	for _, blk := range o.Blocks {
		total += blk.Ear.Red.NumRemoved()
	}
	return total
}
