package apsp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bcc"
	"repro/internal/ear"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// Oracle snapshots: build-once/serve-many persistence. WriteTo serialises
// every expensive product of construction — the graph, the BCC edge
// partition, the per-block ear reductions and S^r distance tables, the
// rooted block-cut forest, and the a×a articulation table with its AP
// graph — into one snapshot container. ReadOracle restores an oracle that
// answers every query bit-identically to the one that was written, without
// re-running any of the build phases (no Hopcroft–Tarjan, no ear
// reduction, no Dijkstra): the only work on load is decoding plus cheap
// deterministic restructuring (CSR assembly, inverse maps, the
// binary-lifting table).
//
// Sections ("meta" first, the rest in fixed order):
//
//	meta    oracle format version, n, #blocks, a, total relaxations
//	graph   the original graph's edge array
//	bcc     per-component edge-ID lists + articulation flags
//	blocks  per block: ear reduction, S^r table, relaxations, sweeps
//	forest  nodeParent / nodeDepth / nodeRoot of the block-cut forest
//	aptable the a×a table A, the AP graph, and its edge→block map
//
// The block-cut tree adjacency (bcc.BlockCutTree) and each block's
// Subgraph are not stored: both are pure deterministic functions of the
// graph and the BCC partition, so decode rebuilds them with the same code
// construction uses.

// oracleFormatVersion is the version of the oracle payload layout, checked
// independently of the container's own version. Bump it whenever a
// section's byte layout changes; readers reject any other version with
// snapshot.ErrVersionSkew rather than guessing.
//
// v2 added a trailing flags word to meta and a storage-kind word before
// every distance table in the blocks/aptable sections. This build writes
// flags 0 and kind tableKindF64 only, and still reads v1 snapshots (no
// flags, untagged float64 tables). The float32 table mode that used the
// compact flag and tableKindF32 is gone: such payloads are rejected with
// ErrFloat32Tables, a snapshot.ErrVersionSkew.
const oracleFormatVersion = 2

// oracleMinReadVersion is the oldest payload layout this build still
// decodes.
const oracleMinReadVersion = 1

// metaFlagCompact marks a payload written by the removed float32 table
// mode (v2 meta flags word); no other flag bit was ever defined.
const metaFlagCompact = 1 << 0

// Table storage-kind tags (v2+ blocks/aptable sections). Only float64
// tables are written; tableKindF32 is recognised so it can be rejected as
// version skew rather than corruption.
const (
	tableKindF64 = 0
	tableKindF32 = 1
)

// ErrFloat32Tables reports a snapshot, shard snapshot, or plan written
// with float32 distance tables. It wraps snapshot.ErrVersionSkew: the
// bytes are well formed, but this build no longer has a reader for them.
var ErrFloat32Tables = fmt.Errorf("apsp: float32 tables are no longer supported: %w", snapshot.ErrVersionSkew)

// CheckTableFlags applies the flags-word policy shared by oracle
// snapshots, shard snapshots and shard plans: unknown bits are
// corruption, the compact bit is ErrFloat32Tables. Writers write 0.
func CheckTableFlags(flags uint32) error {
	if flags&^uint32(metaFlagCompact) != 0 {
		return snapshot.Corruptf("apsp: unknown flags %#x", flags)
	}
	if flags != 0 {
		return ErrFloat32Tables
	}
	return nil
}

// EncodeTable writes a distance table with its storage-kind tag, the
// table encoding shared by oracle snapshots (v2+), shard snapshots and
// shard plans.
func EncodeTable(e *snapshot.Encoder, t []graph.Weight) {
	e.U32(tableKindF64)
	e.F64s(t)
}

// DecodeTable reads a table written by EncodeTable. A float32 kind tag
// is ErrFloat32Tables; any other unknown tag is corruption.
func DecodeTable(d *snapshot.Decoder) ([]graph.Weight, error) {
	switch kind := d.U32(); {
	case d.Err() != nil:
		return nil, d.Err()
	case kind == tableKindF64:
		return d.F64s(), nil
	case kind == tableKindF32:
		return nil, ErrFloat32Tables
	default:
		return nil, snapshot.Corruptf("apsp: unknown table kind %d", kind)
	}
}

// WriteTo serialises the oracle as a snapshot container, implementing
// io.WriterTo. It records the time spent under obs.Default's "snapshot"
// phases ("save") and bumps the snapshot.saves counter.
func (o *Oracle) WriteTo(w io.Writer) (int64, error) {
	return o.writeSnapshot(w, nil, deltaChainFormatVersion)
}

// writeSnapshot writes the base oracle sections plus, when deltas are
// present, the delta-chain section (see deltachain.go). The chain format
// version is a parameter so tests can exercise skew handling.
func (o *Oracle) writeSnapshot(w io.Writer, deltas []Delta, chainVersion uint32) (int64, error) {
	t0 := time.Now()
	sw := snapshot.NewWriter()

	meta := sw.Section("meta")
	meta.U32(oracleFormatVersion)
	meta.U64(uint64(o.G.NumVertices()))
	meta.U64(uint64(len(o.Blocks)))
	meta.U64(uint64(o.numA))
	meta.I64(o.Relaxations)
	meta.U32(0) // flags

	o.G.EncodeSnapshot(sw.Section("graph"))

	be := sw.Section("bcc")
	be.U64(uint64(len(o.Dec.Components)))
	for _, comp := range o.Dec.Components {
		be.I32s(comp)
	}
	be.Bools(o.Dec.IsArticulation)

	bl := sw.Section("blocks")
	for _, blk := range o.Blocks {
		blk.Ear.Red.EncodeSnapshot(bl)
		EncodeTable(bl, blk.Ear.SR)
		bl.I64(blk.Ear.Relaxations)
		bl.U64(uint64(blk.Ear.sweeps))
	}

	fe := sw.Section("forest")
	fe.I32s(o.nodeParent)
	fe.I32s(o.nodeDepth)
	fe.I32s(o.nodeRoot)

	ae := sw.Section("aptable")
	EncodeTable(ae, o.A)
	if o.apGraph != nil {
		ae.U32(1)
		o.apGraph.EncodeSnapshot(ae)
		ae.I32s(o.apEdgeBlock)
	} else {
		ae.U32(0)
	}

	if len(deltas) > 0 {
		encodeDeltaSection(sw.Section(deltaSection), chainVersion, deltas)
	}

	n, err := sw.WriteTo(w)
	if err == nil {
		obs.Default.Phases("snapshot").Record("save", time.Since(t0))
		obs.Default.Counter("snapshot.saves").Inc()
	}
	return n, err
}

// ReadOracle restores an oracle from a snapshot written by WriteTo. Corrupt,
// truncated, or version-skewed input is rejected with an error wrapping one
// of snapshot's typed sentinels (ErrBadMagic, ErrVersionSkew, ErrChecksum,
// ErrCorrupt); ReadOracle never panics on hostile bytes. On success it
// records the load under obs.Default's "snapshot" phases and bumps the
// snapshot.loads counter — and, deliberately, touches none of the
// "apsp.build" metrics, so a process that only loads snapshots shows zero
// build activity.
func ReadOracle(r io.Reader) (o *Oracle, err error) {
	t0 := time.Now()
	// Every decode path below validates before indexing, but a snapshot is
	// an external input to a long-lived server: convert any escaped panic
	// into the typed corruption error rather than taking the process down.
	defer func() {
		if rec := recover(); rec != nil {
			o, err = nil, snapshot.Corruptf("apsp: snapshot decode panic: %v", rec)
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
	if md.Err() == nil && (ver < oracleMinReadVersion || ver > oracleFormatVersion) {
		return nil, fmt.Errorf("apsp: oracle snapshot format v%d, this build reads v%d–v%d: %w",
			ver, oracleMinReadVersion, oracleFormatVersion, snapshot.ErrVersionSkew)
	}
	n := md.U64()
	numBlocks := md.U64()
	numA := md.U64()
	relax := md.I64()
	var flags uint32
	if ver >= 2 {
		flags = md.U32()
	}
	if err := md.Finish(); err != nil {
		return nil, err
	}
	if err := CheckTableFlags(flags); err != nil {
		return nil, err
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
		return nil, snapshot.Corruptf("apsp: meta says %d vertices, graph has %d", n, g.NumVertices())
	}

	dec, err := decodeDecomposition(sr, g, numBlocks)
	if err != nil {
		return nil, err
	}
	// The block-cut tree and per-block subgraphs are deterministic
	// restructurings of (g, dec) — same code path as construction.
	bct := bcc.BuildBlockCutTree(g, dec)
	if uint64(len(bct.CutVertices)) != numA {
		return nil, snapshot.Corruptf("apsp: meta says %d articulation points, partition yields %d",
			numA, len(bct.CutVertices))
	}
	o = &Oracle{
		G: g, Dec: dec, BCT: bct, numA: int(numA),
		Relaxations: relax,
		BuildPhases: &obs.Phases{},
	}

	if err := o.decodeBlocks(sr, ver); err != nil {
		return nil, err
	}
	if err := o.decodeForest(sr); err != nil {
		return nil, err
	}
	if err := o.decodeAPTable(sr, ver); err != nil {
		return nil, err
	}
	// A delta-chain snapshot replays its ordered records on top of the
	// base oracle, restoring the post-delta state (see deltachain.go).
	if o, err = o.replayChain(sr); err != nil {
		return nil, err
	}

	d := time.Since(t0)
	o.BuildPhases.Record("snapshot.load", d)
	obs.Default.Phases("snapshot").Record("load", d)
	obs.Default.Counter("snapshot.loads").Inc()
	return o, nil
}

// decodeDecomposition reads the BCC section and checks it is a genuine
// edge partition: every edge of g in exactly one component.
func decodeDecomposition(sr *snapshot.Reader, g *graph.Graph, numBlocks uint64) (*bcc.Decomposition, error) {
	bd, err := sr.Section("bcc")
	if err != nil {
		return nil, err
	}
	ncomp := bd.Count(8)
	if err := bd.Err(); err != nil {
		return nil, err
	}
	if uint64(ncomp) != numBlocks {
		return nil, snapshot.Corruptf("apsp: meta says %d blocks, bcc section has %d", numBlocks, ncomp)
	}
	m := g.NumEdges()
	seen := make([]bool, m)
	covered := 0
	dec := &bcc.Decomposition{Components: make([][]int32, ncomp)}
	for i := range dec.Components {
		comp := bd.I32s()
		if err := bd.Err(); err != nil {
			return nil, err
		}
		for _, eid := range comp {
			if eid < 0 || int(eid) >= m {
				return nil, snapshot.Corruptf("apsp: component %d references edge %d of %d", i, eid, m)
			}
			if seen[eid] {
				return nil, snapshot.Corruptf("apsp: edge %d in two components", eid)
			}
			seen[eid] = true
			covered++
		}
		dec.Components[i] = comp
	}
	if covered != m {
		return nil, snapshot.Corruptf("apsp: components cover %d of %d edges", covered, m)
	}
	dec.IsArticulation = bd.Bools()
	if err := bd.Err(); err != nil {
		return nil, err
	}
	if len(dec.IsArticulation) != g.NumVertices() {
		return nil, snapshot.Corruptf("apsp: %d articulation flags for %d vertices",
			len(dec.IsArticulation), g.NumVertices())
	}
	return dec, bd.Finish()
}

// decodeBlocks reads each block's ear reduction and S^r table, rebuilding
// the subgraphs from the already-validated edge partition and the shared
// flat vertex index at the end.
func (o *Oracle) decodeBlocks(sr *snapshot.Reader, ver uint32) error {
	bd, err := sr.Section("blocks")
	if err != nil {
		return err
	}
	subs := o.Dec.Subgraphs(o.G)
	o.Blocks = make([]*BlockAPSP, len(subs))
	for bi, sub := range subs {
		red, err := ear.DecodeReduced(bd, sub.G)
		if err != nil {
			return err
		}
		nr := red.R.NumVertices()
		ea := &EarAPSP{G: sub.G, Red: red, nr: nr}
		if ver >= 2 {
			if ea.SR, err = DecodeTable(bd); err != nil {
				return fmt.Errorf("apsp: block %d: %w", bi, err)
			}
		} else {
			ea.SR = bd.F64s()
		}
		ea.Relaxations = bd.I64()
		sweeps := bd.U64()
		if err := bd.Err(); err != nil {
			return err
		}
		if len(ea.SR) != nr*nr {
			return snapshot.Corruptf("apsp: block %d has %d table entries for nr=%d", bi, len(ea.SR), nr)
		}
		if sweeps > 1<<40 {
			return snapshot.Corruptf("apsp: block %d sweep count %d", bi, sweeps)
		}
		ea.sweeps = int(sweeps)
		o.Blocks[bi] = &BlockAPSP{Sub: sub, Ear: ea}
	}
	o.buildLocIndex()
	return bd.Finish()
}

// decodeForest reads the rooted block-cut forest and re-derives the
// binary-lifting table. The parent/depth/root invariants are checked in
// full: they are exactly what ancestorAtDepth and lca rely on to never
// index out of range.
func (o *Oracle) decodeForest(sr *snapshot.Reader) error {
	fd, err := sr.Section("forest")
	if err != nil {
		return err
	}
	o.nodeParent = fd.I32s()
	o.nodeDepth = fd.I32s()
	o.nodeRoot = fd.I32s()
	if err := fd.Err(); err != nil {
		return err
	}
	nn := len(o.Blocks) + o.numA
	if len(o.nodeParent) != nn || len(o.nodeDepth) != nn || len(o.nodeRoot) != nn {
		return snapshot.Corruptf("apsp: forest arrays sized %d/%d/%d for %d nodes",
			len(o.nodeParent), len(o.nodeDepth), len(o.nodeRoot), nn)
	}
	for v := 0; v < nn; v++ {
		p := o.nodeParent[v]
		switch {
		case p < 0:
			if o.nodeDepth[v] != 0 || o.nodeRoot[v] != int32(v) {
				return snapshot.Corruptf("apsp: forest root %d has depth %d root %d",
					v, o.nodeDepth[v], o.nodeRoot[v])
			}
		case int(p) >= nn:
			return snapshot.Corruptf("apsp: forest node %d parent %d of %d", v, p, nn)
		default:
			if o.nodeDepth[v] != o.nodeDepth[p]+1 || o.nodeRoot[v] != o.nodeRoot[p] {
				return snapshot.Corruptf("apsp: forest node %d inconsistent with parent %d", v, p)
			}
		}
	}
	o.buildLifting()
	return fd.Finish()
}

// decodeAPTable reads the articulation table, the AP graph, and the
// edge→block map.
func (o *Oracle) decodeAPTable(sr *snapshot.Reader, ver uint32) error {
	ad, err := sr.Section("aptable")
	if err != nil {
		return err
	}
	if ver >= 2 {
		if o.A, err = DecodeTable(ad); err != nil {
			return fmt.Errorf("apsp: AP table: %w", err)
		}
	} else {
		o.A = ad.F64s()
	}
	has := ad.U32()
	if err := ad.Err(); err != nil {
		return err
	}
	if len(o.A) != o.numA*o.numA {
		return snapshot.Corruptf("apsp: AP table has %d entries for a=%d", len(o.A), o.numA)
	}
	if (has == 1) != (o.numA > 0) {
		return snapshot.Corruptf("apsp: AP graph flag %d with a=%d", has, o.numA)
	}
	if has == 1 {
		apg, err := graph.DecodeSnapshot(ad)
		if err != nil {
			return err
		}
		if apg.NumVertices() != o.numA {
			return snapshot.Corruptf("apsp: AP graph has %d vertices for a=%d", apg.NumVertices(), o.numA)
		}
		o.apEdgeBlock = ad.I32s()
		if err := ad.Err(); err != nil {
			return err
		}
		if len(o.apEdgeBlock) != apg.NumEdges() {
			return snapshot.Corruptf("apsp: %d edge→block entries for %d AP edges",
				len(o.apEdgeBlock), apg.NumEdges())
		}
		for i, b := range o.apEdgeBlock {
			if b < 0 || int(b) >= len(o.Blocks) {
				return snapshot.Corruptf("apsp: AP edge %d maps to block %d of %d", i, b, len(o.Blocks))
			}
		}
		o.apGraph = apg
	}
	return ad.Finish()
}
