package apsp

import "fmt"

// CheckInvariants audits the oracle's internal structure: the BCC edge
// partition, block/subgraph consistency, table sizes, the rooted forest,
// and the AP table. It exists for the delta machinery — an incorrect
// incremental update should fail loudly here (and in the differential
// harness) rather than answer queries subtly wrong. It is read-only and
// cheap relative to a build: O(n + m + a²).
func (o *Oracle) CheckInvariants() error {
	n := o.G.NumVertices()
	m := o.G.NumEdges()

	// The components are an exact edge partition.
	if len(o.Dec.Components) != len(o.Blocks) {
		return fmt.Errorf("apsp: %d components but %d blocks", len(o.Dec.Components), len(o.Blocks))
	}
	seen := make([]bool, m)
	covered := 0
	for bi, comp := range o.Dec.Components {
		for _, eid := range comp {
			if eid < 0 || int(eid) >= m {
				return fmt.Errorf("apsp: component %d references edge %d of %d", bi, eid, m)
			}
			if seen[eid] {
				return fmt.Errorf("apsp: edge %d in two components", eid)
			}
			seen[eid] = true
			covered++
		}
	}
	if covered != m {
		return fmt.Errorf("apsp: components cover %d of %d edges", covered, m)
	}
	if len(o.Dec.IsArticulation) != n {
		return fmt.Errorf("apsp: %d articulation flags for %d vertices", len(o.Dec.IsArticulation), n)
	}

	// Block-cut tree maps are sized and in range.
	if len(o.BCT.CutVertices) != o.numA {
		return fmt.Errorf("apsp: %d cut vertices, numA=%d", len(o.BCT.CutVertices), o.numA)
	}
	if len(o.BCT.BlockOf) != n || len(o.BCT.CutIndex) != n {
		return fmt.Errorf("apsp: BlockOf/CutIndex sized %d/%d for %d vertices",
			len(o.BCT.BlockOf), len(o.BCT.CutIndex), n)
	}
	for v := 0; v < n; v++ {
		if b := o.BCT.BlockOf[v]; int(b) >= len(o.Blocks) {
			return fmt.Errorf("apsp: vertex %d in block %d of %d", v, b, len(o.Blocks))
		}
		if ci := o.BCT.CutIndex[v]; int(ci) >= o.numA {
			return fmt.Errorf("apsp: vertex %d cut index %d of %d", v, ci, o.numA)
		}
	}

	// Per block: subgraph matches its component, tables match the
	// reduction, and the local index is the inverse of ToParentVertex.
	for bi, blk := range o.Blocks {
		if blk == nil || blk.Ear == nil || blk.Sub == nil {
			return fmt.Errorf("apsp: block %d incomplete", bi)
		}
		if blk.Sub.G.NumEdges() != len(o.Dec.Components[bi]) {
			return fmt.Errorf("apsp: block %d subgraph has %d edges for component of %d",
				bi, blk.Sub.G.NumEdges(), len(o.Dec.Components[bi]))
		}
		if blk.Ear.G.NumVertices() != blk.Sub.G.NumVertices() {
			return fmt.Errorf("apsp: block %d ear built on %d vertices, subgraph has %d",
				bi, blk.Ear.G.NumVertices(), blk.Sub.G.NumVertices())
		}
		nr := blk.Ear.Red.R.NumVertices()
		srLen := len(blk.Ear.SR)
		if blk.Ear.nr != nr || srLen != nr*nr {
			return fmt.Errorf("apsp: block %d has %d S^r entries for nr=%d", bi, srLen, nr)
		}
		if blk.loc != o.loc || blk.bi != int32(bi) {
			return fmt.Errorf("apsp: block %d not stamped with the shared vertex index", bi)
		}
		for local, parent := range blk.Sub.ToParentVertex {
			if got := blk.local(parent); got != int32(local) {
				return fmt.Errorf("apsp: block %d local index disagrees at parent vertex %d", bi, parent)
			}
		}
	}
	if o.loc == nil {
		return fmt.Errorf("apsp: vertex index missing")
	}
	if len(o.loc.home) != n {
		return fmt.Errorf("apsp: vertex index sized %d for %d vertices", len(o.loc.home), n)
	}

	// Rooted forest invariants — exactly what lca/ancestorAtDepth rely on.
	nn := len(o.Blocks) + o.numA
	if len(o.nodeParent) != nn || len(o.nodeDepth) != nn || len(o.nodeRoot) != nn {
		return fmt.Errorf("apsp: forest arrays sized %d/%d/%d for %d nodes",
			len(o.nodeParent), len(o.nodeDepth), len(o.nodeRoot), nn)
	}
	for v := 0; v < nn; v++ {
		p := o.nodeParent[v]
		switch {
		case p < 0:
			if o.nodeDepth[v] != 0 || o.nodeRoot[v] != int32(v) {
				return fmt.Errorf("apsp: forest root %d has depth %d root %d", v, o.nodeDepth[v], o.nodeRoot[v])
			}
		case int(p) >= nn:
			return fmt.Errorf("apsp: forest node %d parent %d of %d", v, p, nn)
		default:
			if o.nodeDepth[v] != o.nodeDepth[p]+1 || o.nodeRoot[v] != o.nodeRoot[p] {
				return fmt.Errorf("apsp: forest node %d inconsistent with parent %d", v, p)
			}
		}
	}
	if o.upLevels == 0 || len(o.up) != o.upLevels*nn {
		return fmt.Errorf("apsp: lifting table missing or mis-sized (%d entries for %d levels × %d nodes)",
			len(o.up), o.upLevels, nn)
	}

	// AP table: a×a, zero diagonal, edge→block map in range.
	if len(o.A) != o.numA*o.numA {
		return fmt.Errorf("apsp: AP table has %d entries for a=%d", len(o.A), o.numA)
	}
	for i := 0; i < o.numA; i++ {
		if o.apAt(int32(i), int32(i)) != 0 {
			return fmt.Errorf("apsp: AP table diagonal %d is %v", i, o.apAt(int32(i), int32(i)))
		}
	}
	if (o.apGraph != nil) != (o.numA > 0) {
		return fmt.Errorf("apsp: AP graph presence inconsistent with a=%d", o.numA)
	}
	if o.apGraph != nil {
		if o.apGraph.NumVertices() != o.numA {
			return fmt.Errorf("apsp: AP graph has %d vertices for a=%d", o.apGraph.NumVertices(), o.numA)
		}
		if len(o.apEdgeBlock) != o.apGraph.NumEdges() {
			return fmt.Errorf("apsp: %d edge→block entries for %d AP edges",
				len(o.apEdgeBlock), o.apGraph.NumEdges())
		}
		for i, b := range o.apEdgeBlock {
			if b < 0 || int(b) >= len(o.Blocks) {
				return fmt.Errorf("apsp: AP edge %d maps to block %d of %d", i, b, len(o.Blocks))
			}
		}
	}
	return nil
}
