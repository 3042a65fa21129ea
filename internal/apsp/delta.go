package apsp

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"time"

	"repro/internal/bcc"
	"repro/internal/graph"
	"repro/internal/hetero"
	"repro/internal/obs"
)

// Live updates. The paper's decomposition is exactly what makes an APSP
// oracle incrementally maintainable: a weight change inside one
// biconnected component perturbs only that component's reduced tables
// (and, through its cut-pair clique, the a×a AP table), while every other
// block's ear reduction and S^r table stays bit-identical. ApplyDelta
// exploits that locality. It never mutates the receiver: it returns a NEW
// oracle that shares every untouched immutable sub-structure with the old
// one, so a serving layer can keep answering on the old oracle until it
// atomically swaps in the new one.
//
// Two paths:
//
//   - cheap path — every delta is a weight change: the BCC partition, the
//     block-cut forest, and all untouched BlockAPSPs are shared by
//     reference; only blocks containing a changed edge re-run ear
//     reduction + S^r, and the AP table is recomputed only if one of them
//     carries ≥ 2 articulation points.
//
//   - scoped rebuild (the rebuild-fallback boundary) — any insert or
//     delete can merge or split biconnected components, so the partition
//     and forest are recomputed from scratch; but each new component whose
//     edge sequence is identical (after edge-ID remapping) to an untouched
//     old component reuses the old component's EarAPSP — the expensive
//     per-block Dijkstra work — outright. Only genuinely changed
//     components are recomputed.
//
// Delta scripts are positional: edge IDs refer to the edge list AT THE
// TIME the delta applies. A delete removes its slot, shifting every later
// edge ID down by one; an insert appends at the end. Vertices are never
// removed; an insert may reference up to two vertices beyond the current
// count, growing the graph (the bound keeps hostile scripts from
// allocating unboundedly).

// DeltaKind classifies one mutation.
type DeltaKind uint8

const (
	// DeltaWeight sets the weight of existing edge Edge to W.
	DeltaWeight DeltaKind = iota
	// DeltaInsert appends a new edge {U, V} with weight W. Endpoints may
	// exceed the current vertex count by at most two, growing the graph.
	DeltaInsert
	// DeltaDelete removes existing edge Edge; later edge IDs shift down.
	DeltaDelete
)

func (k DeltaKind) String() string {
	switch k {
	case DeltaWeight:
		return "weight"
	case DeltaInsert:
		return "insert"
	case DeltaDelete:
		return "delete"
	}
	return fmt.Sprintf("DeltaKind(%d)", uint8(k))
}

// Delta is one graph mutation. Which fields are read depends on Kind:
// Edge for weight/delete, U/V for insert, W for weight/insert.
type Delta struct {
	Kind DeltaKind
	Edge int32
	U, V int32
	W    graph.Weight
}

// ErrBadDelta reports a delta rejected by validation (edge ID out of
// range at its point of application, negative/NaN/Inf weight, endpoint
// out of the bounded-growth range, or an unknown kind). ApplyDelta
// validates the whole script before touching anything, so a script that
// fails leaves the oracle unchanged.
var ErrBadDelta = errors.New("apsp: invalid delta")

func badDeltaf(i int, format string, args ...any) error {
	return fmt.Errorf("apsp: delta %d: %s: %w", i, fmt.Sprintf(format, args...), ErrBadDelta)
}

func checkDeltaWeight(i int, w graph.Weight) error {
	if math.IsNaN(w) || w < 0 || w >= Inf {
		return badDeltaf(i, "weight %v outside [0, Inf)", w)
	}
	return nil
}

// editTrace is the audited result of applying a delta script to an edge
// list, carrying enough provenance to classify the change against the old
// block partition.
type editTrace struct {
	n     int          // vertex count after the script
	edges []graph.Edge // edge list after the script (fresh copy)

	structural bool // any insert or delete in the script

	// origOf[newID] is the old-graph edge ID a surviving edge came from,
	// or -1 for an edge inserted by the script.
	origOf []int32
	// weightChanged marks old edge IDs whose weight the script changed.
	weightChanged map[int32]bool
	// deletedOld lists old edge IDs the script removed.
	deletedOld []int32
	// inserted lists the edges the script added (endpoints in new IDs).
	inserted []graph.Edge
}

// traceEdits validates and applies deltas to an n-vertex edge list,
// returning the full trace. The input slice is never mutated.
func traceEdits(n int, edges []graph.Edge, deltas []Delta) (*editTrace, error) {
	tr := &editTrace{
		n:             n,
		edges:         append([]graph.Edge(nil), edges...),
		origOf:        make([]int32, len(edges)),
		weightChanged: make(map[int32]bool),
	}
	for i := range tr.origOf {
		tr.origOf[i] = int32(i)
	}
	for i, d := range deltas {
		switch d.Kind {
		case DeltaWeight:
			if d.Edge < 0 || int(d.Edge) >= len(tr.edges) {
				return nil, badDeltaf(i, "weight change on edge %d of %d", d.Edge, len(tr.edges))
			}
			if err := checkDeltaWeight(i, d.W); err != nil {
				return nil, err
			}
			tr.edges[d.Edge].W = d.W
			if orig := tr.origOf[d.Edge]; orig >= 0 {
				tr.weightChanged[orig] = true
			}
		case DeltaInsert:
			if d.U < 0 || d.V < 0 {
				return nil, badDeltaf(i, "insert endpoint (%d,%d) negative", d.U, d.V)
			}
			hi := int(d.U) + 1
			if int(d.V)+1 > hi {
				hi = int(d.V) + 1
			}
			if hi > tr.n+2 {
				return nil, badDeltaf(i, "insert endpoint (%d,%d) beyond %d+2 vertices", d.U, d.V, tr.n)
			}
			if err := checkDeltaWeight(i, d.W); err != nil {
				return nil, err
			}
			e := graph.Edge{U: d.U, V: d.V, W: d.W}
			tr.edges = append(tr.edges, e)
			tr.origOf = append(tr.origOf, -1)
			tr.inserted = append(tr.inserted, e)
			if hi > tr.n {
				tr.n = hi
			}
			tr.structural = true
		case DeltaDelete:
			if d.Edge < 0 || int(d.Edge) >= len(tr.edges) {
				return nil, badDeltaf(i, "delete of edge %d of %d", d.Edge, len(tr.edges))
			}
			if orig := tr.origOf[d.Edge]; orig >= 0 {
				tr.deletedOld = append(tr.deletedOld, orig)
			}
			tr.edges = append(tr.edges[:d.Edge], tr.edges[d.Edge+1:]...)
			tr.origOf = append(tr.origOf[:d.Edge], tr.origOf[d.Edge+1:]...)
			tr.structural = true
		default:
			return nil, badDeltaf(i, "unknown kind %d", d.Kind)
		}
	}
	return tr, nil
}

// MutateEdges applies a delta script to an edge list, returning the new
// vertex count and a fresh edge slice. It is the pure reference semantics
// of ApplyDelta: building an oracle on the mutated graph must answer
// identically to applying the script incrementally (internal/check holds
// the two sides together).
func MutateEdges(n int, edges []graph.Edge, deltas []Delta) (int, []graph.Edge, error) {
	tr, err := traceEdits(n, edges, deltas)
	if err != nil {
		return 0, nil, err
	}
	return tr.n, tr.edges, nil
}

// MutateGraph applies a delta script to a graph, returning the mutated
// graph; g itself is never modified.
func MutateGraph(g *graph.Graph, deltas []Delta) (*graph.Graph, error) {
	n, edges, err := MutateEdges(g.NumVertices(), g.Edges(), deltas)
	if err != nil {
		return nil, err
	}
	return graph.FromEdges(n, edges), nil
}

// DeltaResult reports what one ApplyDelta actually did.
type DeltaResult struct {
	// TouchedBlocks counts blocks whose ear reduction + S^r table were
	// recomputed; ReusedBlocks counts blocks carried over by reference.
	TouchedBlocks int
	ReusedBlocks  int
	// RebuildFallback is true when the script crossed the cheap-path
	// boundary (contained an insert or delete) and the partition + forest
	// were recomputed.
	RebuildFallback bool
	// APRebuilt is true when the a×a articulation table was recomputed.
	APRebuilt bool
	// Stale[v], indexed by OLD-graph vertex ID, marks every source whose
	// cached distance row may have changed: all vertices of each old
	// connected component that contains a touched block or an insert
	// endpoint. A caching layer must evict exactly these rows (qe's
	// Engine.SwapSource consumes it directly).
	Stale []bool
}

// ApplyDelta applies a delta script and returns a new oracle for the
// mutated graph; the receiver is never modified and keeps answering
// queries for the old graph. The script is validated in full before any
// work happens: on error (wrapping ErrBadDelta) or context cancellation
// the receiver is the only oracle there is.
//
// On success it records the apply under obs.Default's "delta" phases and
// bumps delta.applies (and delta.rebuild_fallback when structural); the
// touched-block count feeds the delta.touched_blocks histogram.
func (o *Oracle) ApplyDelta(ctx context.Context, deltas []Delta) (*Oracle, *DeltaResult, error) {
	return o.ApplyDeltaParallel(ctx, deltas, hetero.Workers())
}

// ApplyDeltaParallel is ApplyDelta with an explicit worker count for the
// per-block recomputations (mirroring NewOracleParallelCtx).
func (o *Oracle) ApplyDeltaParallel(ctx context.Context, deltas []Delta, workers int) (*Oracle, *DeltaResult, error) {
	t0 := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	tr, err := traceEdits(o.G.NumVertices(), o.G.Edges(), deltas)
	if err != nil {
		return nil, nil, err
	}
	var (
		n   *Oracle
		res *DeltaResult
	)
	if tr.structural {
		n, res, err = o.applyStructural(ctx, tr, workers)
	} else {
		n, res, err = o.applyWeightOnly(ctx, tr, workers)
	}
	if err != nil {
		return nil, nil, err
	}
	d := time.Since(t0)
	n.BuildPhases.Record("delta.apply", d)
	obs.Default.Phases("delta").Record("apply", d)
	obs.Default.Counter("delta.applies").Inc()
	obs.Default.Counter("delta.deltas").Add(int64(len(deltas)))
	obs.Default.Counter("delta.blocks.touched").Add(int64(res.TouchedBlocks))
	obs.Default.Counter("delta.blocks.reused").Add(int64(res.ReusedBlocks))
	if res.RebuildFallback {
		obs.Default.Counter("delta.rebuild_fallback").Inc()
	}
	// Histogram buckets are exponential in the observed value; feeding the
	// block count through the µs unit reuses them as count buckets.
	obs.Default.Histogram("delta.touched_blocks").Observe(time.Duration(res.TouchedBlocks) * time.Microsecond)
	return n, res, nil
}

// oldEdgeBlocks maps every old edge ID to its biconnected component.
func (o *Oracle) oldEdgeBlocks() []int32 {
	eb := make([]int32, o.G.NumEdges())
	for bi, comp := range o.Dec.Components {
		for _, eid := range comp {
			eb[eid] = int32(bi)
		}
	}
	return eb
}

// staleComponents marks every old vertex whose connected component (in the
// OLD graph) contains one of the given blocks, plus the explicitly listed
// vertices (isolated insert endpoints, which belong to no block).
func (o *Oracle) staleComponents(blocks map[int32]bool, extra []int32) []bool {
	stale := make([]bool, o.G.NumVertices())
	roots := make(map[int32]bool, len(blocks))
	for b := range blocks {
		roots[o.nodeRoot[b]] = true
	}
	for v := range stale {
		if b := o.BCT.BlockOf[v]; b >= 0 && roots[o.nodeRoot[b]] {
			stale[v] = true
		}
	}
	for _, v := range extra {
		if v >= 0 && int(v) < len(stale) {
			stale[v] = true
		}
	}
	return stale
}

// applyWeightOnly is the cheap path: the edge set is unchanged, so the
// BCC partition and the block-cut forest are shared by reference, and only
// blocks containing a re-weighted edge recompute their ear reduction and
// S^r table. The AP table is recomputed only when a touched block carries
// at least two articulation points (otherwise it contributes no AP edge).
func (o *Oracle) applyWeightOnly(ctx context.Context, tr *editTrace, workers int) (*Oracle, *DeltaResult, error) {
	newG := graph.FromEdges(tr.n, tr.edges)
	edgeBlock := o.oldEdgeBlocks()
	touched := make(map[int32]bool)
	for eid := range tr.weightChanged {
		touched[edgeBlock[eid]] = true
	}

	n := &Oracle{
		G: newG, Dec: o.Dec, BCT: o.BCT, numA: o.numA,
		A: o.A, apGraph: o.apGraph, apEdgeBlock: o.apEdgeBlock,
		nodeParent: o.nodeParent, nodeDepth: o.nodeDepth, nodeRoot: o.nodeRoot,
		up: o.up, upLevels: o.upLevels, loc: o.loc,
		Relaxations: o.Relaxations,
		BuildPhases: &obs.Phases{},
	}
	n.Blocks = make([]*BlockAPSP, len(o.Blocks))
	copy(n.Blocks, o.Blocks)

	apRebuild := false
	for bi := range o.Blocks {
		if !touched[int32(bi)] {
			continue
		}
		blk, err := buildBlock(ctx, graph.InducedByEdges(newG, o.Dec.Components[bi]), workers)
		if err != nil {
			return nil, nil, err
		}
		// The shared vertex index stays valid for the rebuilt block:
		// InducedByEdges on the same edge sequence reproduces the same
		// local-ID assignment, so only the stamp needs refreshing.
		blk.bi = int32(bi)
		blk.loc = n.loc
		n.Blocks[bi] = blk
		n.Relaxations += blk.Ear.Relaxations
		if len(o.BCT.BlockCuts[bi]) >= 2 {
			apRebuild = true
		}
	}
	if apRebuild {
		n.A, n.apGraph, n.apEdgeBlock = nil, nil, nil
		if err := n.buildAPTable(ctx, workers); err != nil {
			return nil, nil, err
		}
	}
	res := &DeltaResult{
		TouchedBlocks: len(touched),
		ReusedBlocks:  len(o.Blocks) - len(touched),
		APRebuilt:     apRebuild,
		Stale:         o.staleComponents(touched, nil),
	}
	return n, res, nil
}

// applyStructural is the scoped rebuild: inserts/deletes can merge or
// split biconnected components, so the partition, forest, and AP table are
// recomputed — but every new component whose edge sequence is identical
// (after remapping old edge IDs through the script's shifts) to a clean
// old component reuses that component's EarAPSP without recomputation.
//
// Why sequence equality suffices: Hopcroft–Tarjan ignores weights, CSR
// adjacency preserves the relative order of surviving edges, and
// InducedByEdges assigns local vertex IDs by first appearance in the edge
// sequence — so an identical remapped sequence with identical endpoints
// and weights yields a structurally identical component subgraph, and the
// old reduced tables answer for it bit-identically.
func (o *Oracle) applyStructural(ctx context.Context, tr *editTrace, workers int) (*Oracle, *DeltaResult, error) {
	newG := graph.FromEdges(tr.n, tr.edges)
	dec := bcc.Compute(newG)
	bct := bcc.BuildBlockCutTree(newG, dec)
	n := &Oracle{
		G: newG, Dec: dec, BCT: bct, numA: len(bct.CutVertices),
		Relaxations: o.Relaxations,
		BuildPhases: &obs.Phases{},
	}

	oldToNew := make([]int32, o.G.NumEdges())
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for newID, oldID := range tr.origOf {
		if oldID >= 0 {
			oldToNew[oldID] = int32(newID)
		}
	}

	edgeBlock := o.oldEdgeBlocks()
	dirty := make(map[int32]bool)
	for eid := range tr.weightChanged {
		dirty[edgeBlock[eid]] = true
	}
	for _, eid := range tr.deletedOld {
		dirty[edgeBlock[eid]] = true
	}

	// Index clean old blocks by their remapped edge-ID sequence.
	type oldBlock struct {
		bi  int32
		seq []int32
	}
	var seed maphash.Seed = maphash.MakeSeed()
	reusable := make(map[uint64][]oldBlock)
	for bi, comp := range o.Dec.Components {
		if dirty[int32(bi)] {
			continue
		}
		seq := make([]int32, len(comp))
		for i, eid := range comp {
			seq[i] = oldToNew[eid] // ≥ 0: a clean block has no deleted edge
		}
		h := hashI32s(seed, seq)
		reusable[h] = append(reusable[h], oldBlock{int32(bi), seq})
	}

	subs := dec.Subgraphs(newG)
	n.Blocks = make([]*BlockAPSP, len(subs))
	touchedNew := make(map[int32]bool)
	reused := 0
	for ci, sub := range subs {
		comp := dec.Components[ci]
		var shared *EarAPSP
		for _, ob := range reusable[hashI32s(seed, comp)] {
			if i32sEqual(ob.seq, comp) && o.Blocks[ob.bi].Ear.G.NumVertices() == sub.G.NumVertices() {
				shared = o.Blocks[ob.bi].Ear
				break
			}
		}
		if shared != nil {
			n.Blocks[ci] = &BlockAPSP{Sub: sub, Ear: shared}
			reused++
			continue
		}
		blk, err := buildBlock(ctx, sub, workers)
		if err != nil {
			return nil, nil, err
		}
		n.Blocks[ci] = blk
		n.Relaxations += blk.Ear.Relaxations
		touchedNew[int32(ci)] = true
	}
	n.buildLocIndex()
	n.buildForest()
	if err := n.buildAPTable(ctx, workers); err != nil {
		return nil, nil, err
	}

	// Staleness is judged against the OLD structure: every old component
	// holding a weight-changed/deleted edge or an insert endpoint.
	affected := make(map[int32]bool)
	var extra []int32
	for eid := range tr.weightChanged {
		affected[edgeBlock[eid]] = true
	}
	for _, eid := range tr.deletedOld {
		affected[edgeBlock[eid]] = true
	}
	oldN := o.G.NumVertices()
	for _, e := range tr.inserted {
		for _, v := range [2]int32{e.U, e.V} {
			if int(v) >= oldN {
				continue // brand-new vertex: no old rows to evict
			}
			if b := o.BCT.BlockOf[v]; b >= 0 {
				affected[b] = true
			} else {
				extra = append(extra, v) // isolated old vertex gains edges
			}
		}
	}
	res := &DeltaResult{
		TouchedBlocks:   len(touchedNew),
		ReusedBlocks:    reused,
		RebuildFallback: true,
		APRebuilt:       true,
		Stale:           o.staleComponents(affected, extra),
	}
	return n, res, nil
}

// buildBlock constructs one BlockAPSP from its subgraph. The caller is
// responsible for stamping the block with its ID and the oracle's shared
// vertex index (directly or via buildLocIndex).
func buildBlock(ctx context.Context, sub *graph.Subgraph, workers int) (*BlockAPSP, error) {
	ea, err := NewEarAPSPParallelCtx(ctx, sub.G, workers)
	if err != nil {
		return nil, err
	}
	return &BlockAPSP{Sub: sub, Ear: ea}, nil
}

func hashI32s(seed maphash.Seed, xs []int32) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	for _, x := range xs {
		h.WriteByte(byte(x))
		h.WriteByte(byte(x >> 8))
		h.WriteByte(byte(x >> 16))
		h.WriteByte(byte(x >> 24))
	}
	return h.Sum64()
}

func i32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
