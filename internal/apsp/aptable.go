package apsp

import (
	"context"

	"repro/internal/graph"
	"repro/internal/hetero"
)

// cutEntry is one block–cut incidence of the block-cut forest: block bi,
// in which the cut vertex sits at position pos of BCT.BlockCuts[bi].
type cutEntry struct {
	bi, pos int32
}

// buildAPTable computes the a×a articulation-point distance table A
// (Section 2.2, Stage 2) by a block-cut forest sweep. Every AP-to-AP
// shortest path follows the unique forest path between the two cut nodes,
// so each block on it is crossed exactly once: per block, the in-block
// distances between its cuts are computed once (cutDistances), and then
// each source AP walks its tree, setting A[s][c'] = A[s][c] + d_b(c, c')
// on entering block b through cut c. Sources fan out over workers; ctx is
// checked between sources, and on cancellation the oracle is left
// half-built and the context error returned.
//
// The AP graph (one vertex per AP, per-block clique edges weighted by the
// same cut distances) is still built here: path reconstruction and the
// snapshot's aptable section use it.
func (o *Oracle) buildAPTable(ctx context.Context, workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a := o.numA
	o.A = make([]graph.Weight, a*a)
	if a > 0 {
		if err := o.sweepForest(ctx, workers); err != nil {
			return err
		}
	}
	if o.compact {
		o.a32, o.A = compressTable(o.A), nil
	}
	return nil
}

// sweepForest fills o.A (len a×a) row by row, one row per source AP, and
// adds one Relaxations unit per entry written.
func (o *Oracle) sweepForest(ctx context.Context, workers int) error {
	a := o.numA
	dist, off := o.cutDistances()
	incOff, inc := o.cutIncidences()
	blockCuts := o.BCT.BlockCuts

	if workers < 1 {
		workers = 1
	}
	stacks := make([][]cutEntry, workers)
	writes := make([]int64, workers)
	err := hetero.ParallelForCtx(ctx, workers, a, func(w, s int) {
		row := o.A[s*a : (s+1)*a]
		for i := range row {
			row[i] = Inf
		}
		row[s] = 0
		stack := append(stacks[w][:0], inc[incOff[s]:incOff[s+1]]...)
		var n int64
		for len(stack) > 0 {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cuts := blockCuts[e.bi]
			k := int32(len(cuts))
			d := dist[off[e.bi]+int(e.pos*k) : off[e.bi]+int((e.pos+1)*k)]
			base := row[cuts[e.pos]]
			for q, c := range cuts {
				if int32(q) == e.pos {
					continue
				}
				row[c] = base + d[q]
				n++
				for _, next := range inc[incOff[c]:incOff[c+1]] {
					if next.bi != e.bi {
						stack = append(stack, next)
					}
				}
			}
		}
		stacks[w] = stack
		writes[w] += n
	})
	if err != nil {
		return err
	}
	for _, n := range writes {
		o.Relaxations += n
	}
	return nil
}

// cutDistances computes, for every block with k cuts, the flat k×k table
// of in-block distances between its cuts (in BCT.BlockCuts order), stored
// at dist[off[bi]:off[bi]+k*k]. The i<j query answers both directions, so
// the AP graph built alongside (o.apGraph, o.apEdgeBlock) carries exactly
// the weights the sweep adds.
func (o *Oracle) cutDistances() (dist []graph.Weight, off []int) {
	off = make([]int, len(o.Blocks)+1)
	for bi, cuts := range o.BCT.BlockCuts {
		off[bi+1] = off[bi] + len(cuts)*len(cuts)
	}
	dist = make([]graph.Weight, off[len(o.Blocks)])
	b := graph.NewBuilder(o.numA)
	for bi, blk := range o.Blocks {
		cuts := o.BCT.BlockCuts[bi]
		k := len(cuts)
		d := dist[off[bi] : off[bi]+k*k]
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				w := blk.QueryParent(o.BCT.CutVertices[cuts[i]], o.BCT.CutVertices[cuts[j]])
				d[i*k+j], d[j*k+i] = w, w
				if w < Inf {
					b.AddEdge(cuts[i], cuts[j], w)
					o.apEdgeBlock = append(o.apEdgeBlock, int32(bi))
				}
			}
		}
	}
	o.apGraph = b.Build()
	return dist, off
}

// cutIncidences lists, per cut vertex c, its block incidences in CSR form
// (inc[incOff[c]:incOff[c+1]]), each carrying c's position in the block's
// cut list so the sweep can index the block's distance table directly.
func (o *Oracle) cutIncidences() (incOff []int32, inc []cutEntry) {
	incOff = make([]int32, o.numA+1)
	for _, cuts := range o.BCT.BlockCuts {
		for _, c := range cuts {
			incOff[c+1]++
		}
	}
	for c := 0; c < o.numA; c++ {
		incOff[c+1] += incOff[c]
	}
	inc = make([]cutEntry, incOff[o.numA])
	fill := append([]int32(nil), incOff[:o.numA]...)
	for bi, cuts := range o.BCT.BlockCuts {
		for pos, c := range cuts {
			inc[fill[c]] = cutEntry{bi: int32(bi), pos: int32(pos)}
			fill[c]++
		}
	}
	return incOff, inc
}
