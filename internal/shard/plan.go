package shard

import (
	"fmt"
	"hash/crc64"
	"io"

	"repro/internal/apsp"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/snapshot"
)

// planFormatVersion is the version of the plan manifest payload layout,
// checked independently of the container's own version.
const planFormatVersion = 1

// Plan is the cluster's source of truth: which shard owns each block of
// the block-cut forest, plus the boundary state the frontend needs to
// stitch per-block rows into whole-graph rows — the articulation-point
// table A, the forest topology, and each block's vertex list in the
// exact order shards emit row values. Everything else (graph edges, ear
// reductions, S^r tables) lives only in the per-shard snapshots.
//
// A Plan answers no distance queries by itself; it is the routing and
// assembly map. Fields are read-only after PlanShards/ReadPlan.
type Plan struct {
	// Epoch identifies this plan's generation. Shard snapshots carved
	// under the plan carry the same epoch, the row RPC validates it per
	// request, and a mismatch is a deployment skew (ErrEpochMismatch),
	// never silently stitched. Non-zero; by default a CRC-64 of the plan
	// content, so re-planning the same oracle the same way reproduces
	// the same epoch.
	Epoch uint64
	// NumShards is how many shards the plan assigns blocks across.
	NumShards int32
	// NumVertices is the full graph's vertex count n.
	NumVertices int
	// CutVertices lists the articulation points by AP index, exactly as
	// in bcc.BlockCutTree.
	CutVertices []int32
	// BlockOf maps each vertex to a block containing it (-1 for none),
	// exactly as in bcc.BlockCutTree — the frontend must pick the same
	// home block for a source as the monolith's Row.
	BlockOf []int32
	// BlockCuts lists, per block, the AP indices of the cut vertices
	// lying on that block — the block-cut forest's adjacency.
	BlockCuts [][]int32
	// BlockVerts lists, per block, the block's vertices in subgraph
	// order — the order BlockRow emits row values in.
	BlockVerts [][]int32
	// BlockShard assigns each block to its owning shard.
	BlockShard []int32

	// ap is the a×a articulation-point table, copied from the oracle.
	ap []graph.Weight

	// Derived at load, never serialised.
	numA      int
	cutIndex  []int32   // vertex → AP index, -1 for regular vertices
	cutBlocks [][]int32 // AP index → blocks listing it in BlockCuts (forest adjacency)
	apBlocks  [][]int32 // AP index → blocks whose BlockVerts contain it (own-block membership)
	cutPos    [][]int32 // per block: position of each BlockCuts vertex in BlockVerts
}

// NumBlocks returns the block count of the plan.
func (p *Plan) NumBlocks() int { return len(p.BlockShard) }

// NumAPs returns the articulation-point count a.
func (p *Plan) NumAPs() int { return p.numA }

// OwnedMask returns the per-block ownership flags for one shard, in the
// form apsp.WriteShardSnapshot consumes.
func (p *Plan) OwnedMask(shard int32) []bool {
	owned := make([]bool, len(p.BlockShard))
	for b, s := range p.BlockShard {
		owned[b] = s == shard
	}
	return owned
}

// ShardBlockCount returns how many blocks the plan assigns to shard.
func (p *Plan) ShardBlockCount(shard int32) int {
	n := 0
	for _, s := range p.BlockShard {
		if s == shard {
			n++
		}
	}
	return n
}

// apAt reads the AP table — the exact replica of the oracle's apAt.
func (p *Plan) apAt(i, j int32) graph.Weight { return p.ap[int(i)*p.numA+int(j)] }

// PlanOptions configures PlanShards.
type PlanOptions struct {
	// Shards is the shard count; it must be at least 1. More shards than
	// blocks leaves the surplus shards empty.
	Shards int
	// RefinePasses is the partitioner's boundary-refinement sweep count;
	// < 1 resolves to 8.
	RefinePasses int
	// Epoch overrides the plan epoch; 0 derives it from the plan content.
	Epoch uint64
}

// PlanShards cuts a built oracle into a shard plan: blocks are assigned
// to shards by weight-balanced partitioning of the quotient graph (one
// vertex per block, edges where blocks share an articulation point), so
// each shard carries a near-equal share of table memory and forest
// neighbours tend to co-locate. The plan copies the oracle's boundary
// state (AP table, forest topology, block vertex orders); carve the
// per-shard table snapshots with o.WriteShardSnapshot(w, meta,
// plan.OwnedMask(s)).
func PlanShards(o *apsp.Oracle, opts PlanOptions) (*Plan, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: plan needs at least 1 shard, got %d", opts.Shards)
	}
	refine := opts.RefinePasses
	if refine < 1 {
		refine = 8
	}
	numB := len(o.Blocks)

	// Serving cost of a block ≈ its resident table (nr²) plus its row
	// length; balance that, not the block count, so one giant biconnected
	// component cannot dominate a shard.
	weights := make([]int64, numB)
	for b, blk := range o.Blocks {
		nr := int64(blk.Ear.Red.R.NumVertices())
		weights[b] = nr*nr + int64(len(blk.Sub.ToParentVertex))
	}

	// Quotient graph over blocks: for each AP, path-connect the blocks
	// sharing it (a path, not a clique — same connectivity, linear size).
	qb := graph.NewBuilder(numB)
	for j := range o.BCT.CutVertices {
		bs := o.BCT.CutBlocks[j]
		for i := 1; i < len(bs); i++ {
			qb.AddEdge(bs[i-1], bs[i], 1)
		}
	}
	assign := partition.PartitionWeighted(qb.Build(), opts.Shards, refine, weights)

	p := &Plan{
		NumShards:   int32(opts.Shards),
		NumVertices: o.G.NumVertices(),
		CutVertices: append([]int32(nil), o.BCT.CutVertices...),
		BlockOf:     append([]int32(nil), o.BCT.BlockOf...),
		BlockCuts:   make([][]int32, numB),
		BlockVerts:  make([][]int32, numB),
		BlockShard:  assign,
		ap:          append([]graph.Weight(nil), o.APTableRaw()...),
	}
	for b := 0; b < numB; b++ {
		p.BlockCuts[b] = append([]int32(nil), o.BCT.BlockCuts[b]...)
		p.BlockVerts[b] = append([]int32(nil), o.Blocks[b].Sub.ToParentVertex...)
	}
	if err := p.derive(); err != nil {
		return nil, err
	}
	p.Epoch = opts.Epoch
	if p.Epoch == 0 {
		p.Epoch = p.contentEpoch()
	}
	return p, nil
}

// contentEpoch hashes the manifest bytes (with Epoch zeroed) so identical
// plans agree on an epoch without coordination. Never returns 0, the
// "derive me" sentinel.
func (p *Plan) contentEpoch() uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	saved := p.Epoch
	p.Epoch = 0
	_, _ = p.WriteTo(h)
	p.Epoch = saved
	e := h.Sum64()
	if e == 0 {
		e = 1
	}
	return e
}

// WriteTo serialises the plan manifest as a checksummed EARSNAPS
// container. Sections:
//
//	plan     format version, epoch, shard count, dims, flags
//	assign   block → shard
//	bct      AP list, BlockOf, per-block cut and vertex lists
//	aptable  the a×a articulation distance table, kind-tagged
func (p *Plan) WriteTo(w io.Writer) (int64, error) {
	sw := snapshot.NewWriter()

	md := sw.Section("plan")
	md.U32(planFormatVersion)
	md.U64(p.Epoch)
	md.I32(p.NumShards)
	md.U64(uint64(p.NumVertices))
	md.U64(uint64(len(p.BlockShard)))
	md.U64(uint64(len(p.CutVertices)))
	md.U32(0) // flags

	sw.Section("assign").I32s(p.BlockShard)

	be := sw.Section("bct")
	be.I32s(p.CutVertices)
	be.I32s(p.BlockOf)
	for b := range p.BlockShard {
		be.I32s(p.BlockCuts[b])
		be.I32s(p.BlockVerts[b])
	}

	apsp.EncodeTable(sw.Section("aptable"), p.ap)

	return sw.WriteTo(w)
}

// ReadPlan restores a plan manifest written by WriteTo, validating every
// cross-reference (shard ids, vertex ids, AP indices, table dimensions)
// and rebuilding the derived stitch indexes. Corrupt, truncated, or
// version-skewed input is rejected with an error wrapping one of
// snapshot's typed sentinels; it never panics on hostile bytes.
func ReadPlan(r io.Reader) (p *Plan, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, snapshot.Corruptf("shard: plan decode panic: %v", rec)
		}
	}()
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}

	md, err := sr.Section("plan")
	if err != nil {
		return nil, err
	}
	ver := md.U32()
	if md.Err() == nil && ver != planFormatVersion {
		return nil, fmt.Errorf("shard: plan manifest format v%d, this build reads v%d: %w",
			ver, planFormatVersion, snapshot.ErrVersionSkew)
	}
	p = &Plan{Epoch: md.U64(), NumShards: md.I32()}
	n := md.U64()
	numB := md.U64()
	numA := md.U64()
	flags := md.U32()
	if err := md.Finish(); err != nil {
		return nil, err
	}
	if err := apsp.CheckTableFlags(flags); err != nil {
		return nil, fmt.Errorf("shard: plan: %w", err)
	}
	if p.Epoch == 0 {
		return nil, snapshot.Corruptf("shard: plan epoch 0")
	}
	if p.NumShards < 1 {
		return nil, snapshot.Corruptf("shard: plan has %d shards", p.NumShards)
	}
	p.NumVertices = int(n)

	ad, err := sr.Section("assign")
	if err != nil {
		return nil, err
	}
	p.BlockShard = ad.I32s()
	if err := ad.Finish(); err != nil {
		return nil, err
	}
	if uint64(len(p.BlockShard)) != numB {
		return nil, snapshot.Corruptf("shard: %d assignments for %d blocks", len(p.BlockShard), numB)
	}
	for b, s := range p.BlockShard {
		if s < 0 || s >= p.NumShards {
			return nil, snapshot.Corruptf("shard: block %d assigned to shard %d of %d", b, s, p.NumShards)
		}
	}

	bd, err := sr.Section("bct")
	if err != nil {
		return nil, err
	}
	p.CutVertices = bd.I32s()
	p.BlockOf = bd.I32s()
	p.BlockCuts = make([][]int32, numB)
	p.BlockVerts = make([][]int32, numB)
	for b := uint64(0); b < numB; b++ {
		p.BlockCuts[b] = bd.I32s()
		p.BlockVerts[b] = bd.I32s()
	}
	if err := bd.Err(); err != nil {
		return nil, err
	}
	if err := bd.Finish(); err != nil {
		return nil, err
	}
	if uint64(len(p.CutVertices)) != numA {
		return nil, snapshot.Corruptf("shard: plan says %d articulation points, manifest lists %d",
			numA, len(p.CutVertices))
	}
	if uint64(len(p.BlockOf)) != n {
		return nil, snapshot.Corruptf("shard: BlockOf covers %d of %d vertices", len(p.BlockOf), n)
	}
	for v, b := range p.BlockOf {
		if b < -1 || uint64(b) >= numB && b != -1 {
			return nil, snapshot.Corruptf("shard: vertex %d in block %d of %d", v, b, numB)
		}
	}
	for b := range p.BlockCuts {
		for _, ci := range p.BlockCuts[b] {
			if ci < 0 || uint64(ci) >= numA {
				return nil, snapshot.Corruptf("shard: block %d lists AP %d of %d", b, ci, numA)
			}
		}
		for _, v := range p.BlockVerts[b] {
			if v < 0 || uint64(v) >= n {
				return nil, snapshot.Corruptf("shard: block %d lists vertex %d of %d", b, v, n)
			}
		}
	}

	at, err := sr.Section("aptable")
	if err != nil {
		return nil, err
	}
	if p.ap, err = apsp.DecodeTable(at); err != nil {
		return nil, fmt.Errorf("shard: plan AP table: %w", err)
	}
	if err := at.Finish(); err != nil {
		return nil, err
	}
	if uint64(len(p.ap)) != numA*numA {
		return nil, snapshot.Corruptf("shard: AP table holds %d entries for a=%d", len(p.ap), numA)
	}

	if err := p.derive(); err != nil {
		return nil, err
	}
	return p, nil
}

// derive builds the stitch indexes from the stored fields, validating the
// cross-references it depends on (distinct APs, every block cut present
// in its block's vertex list).
func (p *Plan) derive() error {
	numB := len(p.BlockShard)
	p.numA = len(p.CutVertices)

	p.cutIndex = make([]int32, p.NumVertices)
	for i := range p.cutIndex {
		p.cutIndex[i] = -1
	}
	for j, v := range p.CutVertices {
		if v < 0 || int(v) >= p.NumVertices {
			return snapshot.Corruptf("shard: AP %d is vertex %d of %d", j, v, p.NumVertices)
		}
		if p.cutIndex[v] >= 0 {
			return snapshot.Corruptf("shard: vertex %d listed as AP twice", v)
		}
		p.cutIndex[v] = int32(j)
	}

	p.cutBlocks = make([][]int32, p.numA)
	p.apBlocks = make([][]int32, p.numA)
	p.cutPos = make([][]int32, numB)
	for b := 0; b < numB; b++ {
		for _, ci := range p.BlockCuts[b] {
			p.cutBlocks[ci] = append(p.cutBlocks[ci], int32(b))
		}
		// Own-block membership comes from the vertex lists, not the cut
		// lists: it must replicate the oracle's local(u) >= 0 test, which
		// sees every vertex of a block.
		pos := make([]int32, len(p.BlockCuts[b]))
		for i := range pos {
			pos[i] = -1
		}
		for k, v := range p.BlockVerts[b] {
			if j := p.cutIndex[v]; j >= 0 {
				p.apBlocks[j] = append(p.apBlocks[j], int32(b))
				for i, ci := range p.BlockCuts[b] {
					if ci == j {
						pos[i] = int32(k)
					}
				}
			}
		}
		for i, k := range pos {
			if k < 0 {
				return snapshot.Corruptf("shard: block %d cut vertex %d missing from its vertex list",
					b, p.CutVertices[p.BlockCuts[b][i]])
			}
		}
		p.cutPos[b] = pos
	}
	return nil
}
