package apsp

import (
	"fmt"
	"io"

	"repro/internal/bcc"
	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/snapshot"
)

// Shard snapshots: the per-process slice of one oracle that a shard
// daemon serves. The planner (internal/shard) builds the monolith oracle
// once, assigns each block of the block-cut forest to a shard, and calls
// WriteShardSnapshot per shard. The carved snapshot keeps the full graph
// and BCC partition — both cheap, and required so the shard rebuilds the
// exact same subgraphs and vertex numbering as the monolith — but only
// the owned blocks' ear reductions and S^r tables, which dominate the
// oracle's memory.
//
// Because the tables are copied from the built oracle rather than
// recomputed, a shard's in-block answers are bitwise identical to the
// monolith's: ShardBlocks.BlockRow runs the same QueryParent code over
// the same bytes. That is what lets the frontend's stitching (see
// internal/shard) promise byte-identical rows.
//
// Sections ("meta" first, the rest in fixed order):
//
//	meta    shard format version, plan epoch, shard id / count, dims, flags
//	graph   the original graph's edge array
//	bcc     per-component edge-ID lists + articulation flags
//	owned   one flag per block: does this shard hold its tables
//	blocks  for each owned block, ascending: ear reduction + S^r table

// shardFormatVersion is the version of the shard snapshot payload layout,
// checked independently of the container's own version.
const shardFormatVersion = 1

// ShardMeta identifies one shard's slice of a plan: which plan epoch the
// tables were carved under, and which shard of how many this is. The
// frontend refuses to stitch rows from a shard whose epoch differs from
// its manifest's.
type ShardMeta struct {
	Epoch     uint64
	Shard     int32
	NumShards int32
}

// WriteShardSnapshot serialises the slice of the oracle owned by one
// shard: the graph and BCC partition in full, plus ear reductions and
// distance tables for exactly the blocks with owned[b] == true.
func (o *Oracle) WriteShardSnapshot(w io.Writer, meta ShardMeta, owned []bool) (int64, error) {
	if len(owned) != len(o.Blocks) {
		return 0, fmt.Errorf("apsp: %d ownership flags for %d blocks", len(owned), len(o.Blocks))
	}
	if meta.Shard < 0 || meta.NumShards < 1 || meta.Shard >= meta.NumShards {
		return 0, fmt.Errorf("apsp: shard %d of %d out of range", meta.Shard, meta.NumShards)
	}
	sw := snapshot.NewWriter()

	md := sw.Section("meta")
	md.U32(shardFormatVersion)
	md.U64(meta.Epoch)
	md.I32(meta.Shard)
	md.I32(meta.NumShards)
	md.U64(uint64(o.G.NumVertices()))
	md.U64(uint64(len(o.Blocks)))
	md.U64(uint64(o.numA))
	md.U32(0) // flags

	o.G.EncodeSnapshot(sw.Section("graph"))

	be := sw.Section("bcc")
	be.U64(uint64(len(o.Dec.Components)))
	for _, comp := range o.Dec.Components {
		be.I32s(comp)
	}
	be.Bools(o.Dec.IsArticulation)

	sw.Section("owned").Bools(owned)

	bl := sw.Section("blocks")
	for bi, blk := range o.Blocks {
		if !owned[bi] {
			continue
		}
		blk.Ear.Red.EncodeSnapshot(bl)
		EncodeTable(bl, blk.Ear.SR)
	}

	return sw.WriteTo(w)
}

// ShardBlocks is the serving state decoded from a shard snapshot: the
// full graph/partition restructuring shared with the monolith oracle,
// with ear tables resident only for owned blocks. It answers in-block
// distance rows (BlockRow) for the internal row RPC; it cannot answer
// whole-graph queries — stitching across blocks is the frontend's job.
type ShardBlocks struct {
	meta   ShardMeta
	g      *graph.Graph
	dec    *bcc.Decomposition
	bct    *bcc.BlockCutTree
	blocks []*BlockAPSP // Ear nil for blocks this shard does not own
	owned  []bool
	ownedN int
}

// Meta returns the shard identity the snapshot was carved under.
func (s *ShardBlocks) Meta() ShardMeta { return s.meta }

// NumVertices returns the full graph's vertex count.
func (s *ShardBlocks) NumVertices() int { return s.g.NumVertices() }

// NumEdges returns the full graph's edge count.
func (s *ShardBlocks) NumEdges() int { return s.g.NumEdges() }

// NumBlocks returns the total block count of the plan (owned or not).
func (s *ShardBlocks) NumBlocks() int { return len(s.blocks) }

// OwnedBlocks returns how many blocks this shard holds tables for.
func (s *ShardBlocks) OwnedBlocks() int { return s.ownedN }

// Owned reports whether this shard holds block b's tables.
func (s *ShardBlocks) Owned(b int32) bool {
	return b >= 0 && int(b) < len(s.owned) && s.owned[b]
}

// BlockLen returns the vertex count of block b (its row length), or 0
// for an out-of-range block.
func (s *ShardBlocks) BlockLen(b int32) int {
	if b < 0 || int(b) >= len(s.blocks) {
		return 0
	}
	return len(s.blocks[b].Sub.ToParentVertex)
}

// ErrNotOwned reports a BlockRow request for a block whose tables live
// on another shard — a routing bug on the caller's side, or a stale
// shard map.
var ErrNotOwned = fmt.Errorf("apsp: block not owned by this shard")

// BlockRow writes the in-block distance row d_b(src, v) for every vertex
// v of block b, in the block's ToParentVertex order, into out (which
// must hold exactly BlockLen(b) entries). src is a parent-graph vertex
// ID; a src outside the block yields an all-Inf row, mirroring
// QueryParent. The values are the exact bytes the monolith oracle's
// QueryParent would produce.
func (s *ShardBlocks) BlockRow(b int32, src int32, out []graph.Weight) error {
	if b < 0 || int(b) >= len(s.blocks) {
		return fmt.Errorf("apsp: block %d of %d out of range", b, len(s.blocks))
	}
	if !s.owned[b] {
		return fmt.Errorf("%w: block %d on shard %d", ErrNotOwned, b, s.meta.Shard)
	}
	blk := s.blocks[b]
	if len(out) != len(blk.Sub.ToParentVertex) {
		return fmt.Errorf("apsp: block %d row has %d vertices, buffer holds %d",
			b, len(blk.Sub.ToParentVertex), len(out))
	}
	for i, pv := range blk.Sub.ToParentVertex {
		out[i] = blk.QueryParent(src, pv)
	}
	return nil
}

// ReadShardSnapshot restores a shard's serving state from a snapshot
// written by WriteShardSnapshot. Corrupt, truncated, or version-skewed
// input is rejected with an error wrapping one of snapshot's typed
// sentinels; it never panics on hostile bytes.
func ReadShardSnapshot(r io.Reader) (s *ShardBlocks, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s, err = nil, snapshot.Corruptf("apsp: shard snapshot decode panic: %v", rec)
		}
	}()
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}

	md, err := sr.Section("meta")
	if err != nil {
		return nil, err
	}
	ver := md.U32()
	if md.Err() == nil && ver != shardFormatVersion {
		return nil, fmt.Errorf("apsp: shard snapshot format v%d, this build reads v%d: %w",
			ver, shardFormatVersion, snapshot.ErrVersionSkew)
	}
	meta := ShardMeta{Epoch: md.U64(), Shard: md.I32(), NumShards: md.I32()}
	n := md.U64()
	numBlocks := md.U64()
	numA := md.U64()
	flags := md.U32()
	if err := md.Finish(); err != nil {
		return nil, err
	}
	if err := CheckTableFlags(flags); err != nil {
		return nil, err
	}
	if meta.Shard < 0 || meta.NumShards < 1 || meta.Shard >= meta.NumShards {
		return nil, snapshot.Corruptf("apsp: shard %d of %d out of range", meta.Shard, meta.NumShards)
	}

	gd, err := sr.Section("graph")
	if err != nil {
		return nil, err
	}
	g, err := graph.DecodeSnapshot(gd)
	if err != nil {
		return nil, err
	}
	if err := gd.Finish(); err != nil {
		return nil, err
	}
	if uint64(g.NumVertices()) != n {
		return nil, snapshot.Corruptf("apsp: shard meta says %d vertices, graph has %d", n, g.NumVertices())
	}

	dec, err := decodeDecomposition(sr, g, numBlocks)
	if err != nil {
		return nil, err
	}
	bct := bcc.BuildBlockCutTree(g, dec)
	if uint64(len(bct.CutVertices)) != numA {
		return nil, snapshot.Corruptf("apsp: shard meta says %d articulation points, partition yields %d",
			numA, len(bct.CutVertices))
	}

	od, err := sr.Section("owned")
	if err != nil {
		return nil, err
	}
	owned := od.Bools()
	if err := od.Err(); err != nil {
		return nil, err
	}
	if uint64(len(owned)) != numBlocks {
		return nil, snapshot.Corruptf("apsp: %d ownership flags for %d blocks", len(owned), numBlocks)
	}
	if err := od.Finish(); err != nil {
		return nil, err
	}

	s = &ShardBlocks{meta: meta, g: g, dec: dec, bct: bct, owned: owned}
	bd, err := sr.Section("blocks")
	if err != nil {
		return nil, err
	}
	subs := dec.Subgraphs(g)
	s.blocks = make([]*BlockAPSP, len(subs))
	for bi, sub := range subs {
		blk := &BlockAPSP{Sub: sub}
		s.blocks[bi] = blk
		if !owned[bi] {
			continue
		}
		s.ownedN++
		red, err := ear.DecodeReduced(bd, sub.G)
		if err != nil {
			return nil, err
		}
		nr := red.R.NumVertices()
		ea := &EarAPSP{G: sub.G, Red: red, nr: nr}
		if ea.SR, err = DecodeTable(bd); err != nil {
			return nil, fmt.Errorf("apsp: block %d: %w", bi, err)
		}
		if err := bd.Err(); err != nil {
			return nil, err
		}
		if len(ea.SR) != nr*nr {
			return nil, snapshot.Corruptf("apsp: block %d has %d table entries for nr=%d", bi, len(ea.SR), nr)
		}
		blk.Ear = ea
	}
	if err := bd.Finish(); err != nil {
		return nil, err
	}
	// The shared flat vertex index spans every block (unowned blocks still
	// resolve membership — BlockRow needs src lookup to mirror QueryParent
	// exactly), built by the same code the monolith uses.
	loc := newLocIndex(bct, s.blocks)
	for bi, blk := range s.blocks {
		blk.bi = int32(bi)
		blk.loc = loc
	}
	return s, nil
}

// APTableRaw exposes the articulation-point table, a×a row-major. The
// shard planner copies it into the plan manifest so the frontend's table
// reads are bit-identical to the monolith's apAt. Read-only: callers must
// not mutate the returned slice.
func (o *Oracle) APTableRaw() []graph.Weight { return o.A }
