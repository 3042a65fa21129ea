package apsp

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// snapshotOf serialises o and returns the raw container bytes.
func snapshotOf(t *testing.T, o *Oracle) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := o.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestSnapshotRoundTripIdentical(t *testing.T) {
	for name, g := range testGraphs(t) {
		o := NewOracle(g)
		data := snapshotOf(t, o)

		buildsBefore := obs.Default.Counter("apsp.builds").Value()
		phaseBefore := obs.Default.Phases("apsp.build").Total()
		loaded, err := ReadOracle(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadOracle: %v", name, err)
		}
		if got := obs.Default.Counter("apsp.builds").Value(); got != buildsBefore {
			t.Fatalf("%s: ReadOracle ran a build (counter %d → %d)", name, buildsBefore, got)
		}
		if got := obs.Default.Phases("apsp.build").Total(); got != phaseBefore {
			t.Fatalf("%s: ReadOracle recorded build phases", name)
		}

		n := int32(g.NumVertices())
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				a, b := o.Query(u, v), loaded.Query(u, v)
				if a != b { // bit-identical, including Inf
					t.Fatalf("%s: loaded d(%d,%d) = %v, built = %v", name, u, v, b, a)
				}
			}
		}
		// Paths must reconstruct over the loaded structure too.
		checkPaths(t, g, "snapshot/"+name, loaded.Query, loaded.Path)
		if loaded.Relaxations != o.Relaxations {
			t.Errorf("%s: relaxations %d vs %d", name, loaded.Relaxations, o.Relaxations)
		}
		if loaded.NumArticulation() != o.NumArticulation() {
			t.Errorf("%s: numA %d vs %d", name, loaded.NumArticulation(), o.NumArticulation())
		}
		if m1, m2 := loaded.Memory(), o.Memory(); m1 != m2 {
			t.Errorf("%s: memory plan %+v vs %+v", name, m1, m2)
		}
	}
}

func TestSnapshotRoundTripEmptyGraph(t *testing.T) {
	o := NewOracle(graph.NewBuilder(0).Build())
	loaded, err := ReadOracle(bytes.NewReader(snapshotOf(t, o)))
	if err != nil {
		t.Fatalf("ReadOracle: %v", err)
	}
	if got := loaded.Query(0, 0); got != Inf {
		t.Fatalf("empty-graph query = %v, want Inf", got)
	}
}

func TestSnapshotLoadRecordsMetrics(t *testing.T) {
	o := NewOracle(graph.NewBuilder(1).Build())
	before := obs.Default.Counter("snapshot.loads").Value()
	loaded, err := ReadOracle(bytes.NewReader(snapshotOf(t, o)))
	if err != nil {
		t.Fatalf("ReadOracle: %v", err)
	}
	if got := obs.Default.Counter("snapshot.loads").Value(); got != before+1 {
		t.Errorf("snapshot.loads %d → %d, want +1", before, got)
	}
	if loaded.BuildPhases.Get("snapshot.load") <= 0 {
		t.Errorf("loaded oracle records no snapshot.load phase")
	}
	for _, phase := range []string{"bcc", "blocks", "forest", "aptable"} {
		if loaded.BuildPhases.Get(phase) != 0 {
			t.Errorf("loaded oracle records build phase %q", phase)
		}
	}
}

func TestSnapshotVersionSkew(t *testing.T) {
	w := snapshot.NewWriter()
	w.Section("meta").U32(oracleFormatVersion + 7)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOracle(&buf); !errors.Is(err, snapshot.ErrVersionSkew) {
		t.Fatalf("err = %v, want ErrVersionSkew", err)
	}
}

// TestSnapshotCorruptionTyped flips bits and truncates at many offsets; every
// mutation must produce a typed error, and none may panic (ReadOracle's
// contract for hostile input).
func TestSnapshotCorruptionTyped(t *testing.T) {
	g := testGraphs(t)["chained-blocks"]
	data := snapshotOf(t, NewOracle(g))

	typed := func(err error) bool {
		return errors.Is(err, snapshot.ErrBadMagic) || errors.Is(err, snapshot.ErrVersionSkew) ||
			errors.Is(err, snapshot.ErrChecksum) || errors.Is(err, snapshot.ErrCorrupt)
	}
	for pos := 0; pos < len(data); pos += 37 {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[pos] ^= mask
			if _, err := ReadOracle(bytes.NewReader(mut)); err != nil && !typed(err) {
				t.Fatalf("flip %#x at %d: untyped error %v", mask, pos, err)
			}
			// err == nil can only mean the flip landed in slack the checksum
			// does not cover; the container has none, so treat it as a bug.
			if mut[pos] != data[pos] {
				if _, err := ReadOracle(bytes.NewReader(mut)); err == nil {
					t.Fatalf("flip %#x at %d accepted", mask, pos)
				}
			}
		}
	}
	for cut := 0; cut < len(data); cut += 41 {
		if _, err := ReadOracle(bytes.NewReader(data[:cut])); err == nil || !typed(err) {
			t.Fatalf("truncation at %d: err = %v, want typed", cut, err)
		}
	}
}

// snapshotTestGraph is a small multi-block graph (theta, necklace, and
// loop-flower blocks joined in a chain, then subdivided) whose snapshot
// exercises every section, including a non-empty AP table.
func snapshotTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := gen.NewRNG(0xc0c0a)
	cfg := gen.Config{MaxWeight: 9}
	g := gen.ChainBlocks([]*graph.Graph{
		gen.Theta([]int{2, 3, 4}, cfg, rng),
		gen.CycleNecklace(3, 3, cfg, rng),
		gen.LoopFlower(2, 3, cfg, rng),
	}, cfg, rng)
	return gen.Subdivide(g, 0.5, 2, cfg, rng)
}

// Format fixtures: testdata/oracle-f64.snap is the float64 snapshot of
// snapshotTestGraph as written by the last build that also had a float32
// table mode; testdata/oracle-f32.snap is that build's float32 snapshot
// of the same graph.
const (
	fixtureF64 = "testdata/oracle-f64.snap"
	fixtureF32 = "testdata/oracle-f32.snap"
)

// TestOracleSnapshotBytesStable pins the on-disk format: writing the same
// graph today reproduces the fixture byte for byte, and the fixture reads
// back into an oracle that answers every pair like a fresh build.
func TestOracleSnapshotBytesStable(t *testing.T) {
	want, err := os.ReadFile(fixtureF64)
	if err != nil {
		t.Fatal(err)
	}
	g := snapshotTestGraph(t)
	for name, o := range map[string]*Oracle{"sequential": NewOracle(g), "parallel": NewOracleParallel(g, 3)} {
		if got := snapshotOf(t, o); !bytes.Equal(got, want) {
			t.Fatalf("%s: WriteTo = %d bytes, differs from the %d-byte fixture", name, len(got), len(want))
		}
	}
	back, err := ReadOracle(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("ReadOracle(fixture): %v", err)
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatalf("fixture invariants: %v", err)
	}
	o := NewOracle(g)
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, want := back.Query(int32(u), int32(v)), o.Query(int32(u), int32(v)); got != want {
				t.Fatalf("d(%d,%d) = %v from fixture, %v built", u, v, got, want)
			}
		}
	}
}

// TestOracleSnapshotRejectsFloat32 reads a snapshot written in the removed
// float32 table mode: it must fail as version skew, not corruption, and
// not panic.
func TestOracleSnapshotRejectsFloat32(t *testing.T) {
	data, err := os.ReadFile(fixtureF32)
	if err != nil {
		t.Fatal(err)
	}
	o, err := ReadOracle(bytes.NewReader(data))
	if o != nil || !errors.Is(err, snapshot.ErrVersionSkew) || !errors.Is(err, ErrFloat32Tables) {
		t.Fatalf("ReadOracle(float32 fixture) = %v, %v; want ErrFloat32Tables", o, err)
	}
	if errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("float32 snapshot reported as corrupt: %v", err)
	}
}

// shardPayload hand-rolls a shard snapshot with a chosen meta flags word
// and table-kind tag. Float32 tables use the removed mode's layout: a u64
// count, then one u32 per entry.
func shardPayload(t *testing.T, o *Oracle, meta ShardMeta, owned []bool, flags, kind uint32) []byte {
	t.Helper()
	sw := snapshot.NewWriter()
	md := sw.Section("meta")
	md.U32(shardFormatVersion)
	md.U64(meta.Epoch)
	md.I32(meta.Shard)
	md.I32(meta.NumShards)
	md.U64(uint64(o.G.NumVertices()))
	md.U64(uint64(len(o.Blocks)))
	md.U64(uint64(o.numA))
	md.U32(flags)
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
		bl.U32(kind)
		if kind == tableKindF32 {
			bl.U64(uint64(len(blk.Ear.SR)))
			for _, v := range blk.Ear.SR {
				bl.U32(math.Float32bits(float32(v)))
			}
		} else {
			bl.F64s(blk.Ear.SR)
		}
	}
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardSnapshotRejectsFloat32 applies the read policy to shard
// snapshots: the compact flag or a float32 table is version skew, an
// unknown flag or kind stays corruption, and the float64 hand-roll is
// byte-identical to WriteShardSnapshot.
func TestShardSnapshotRejectsFloat32(t *testing.T) {
	o := NewOracle(snapshotTestGraph(t))
	meta := ShardMeta{Epoch: 9, Shard: 0, NumShards: 1}
	owned := make([]bool, len(o.Blocks))
	for i := range owned {
		owned[i] = true
	}
	var written bytes.Buffer
	if _, err := o.WriteShardSnapshot(&written, meta, owned); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shardPayload(t, o, meta, owned, 0, tableKindF64), written.Bytes()) {
		t.Fatal("hand-rolled float64 shard payload differs from WriteShardSnapshot")
	}
	for _, tc := range []struct {
		name        string
		flags, kind uint32
		want        error
	}{
		{"compact-float32", metaFlagCompact, tableKindF32, snapshot.ErrVersionSkew},
		{"float32-table", 0, tableKindF32, snapshot.ErrVersionSkew},
		{"compact-flag", metaFlagCompact, tableKindF64, snapshot.ErrVersionSkew},
		{"unknown-flag", 1 << 1, tableKindF64, snapshot.ErrCorrupt},
		{"unknown-kind", 0, 7, snapshot.ErrCorrupt},
	} {
		s, err := ReadShardSnapshot(bytes.NewReader(shardPayload(t, o, meta, owned, tc.flags, tc.kind)))
		if s != nil || !errors.Is(err, tc.want) {
			t.Errorf("%s: ReadShardSnapshot = %v, %v; want %v", tc.name, s, err, tc.want)
		}
	}
}

// TestOracleSnapshotReadsV1 hand-rolls the v1 payload layout (no meta
// flags, untagged float64 tables) and checks this build still restores it
// — the compatibility promise oracleMinReadVersion makes.
func TestOracleSnapshotReadsV1(t *testing.T) {
	g := snapshotTestGraph(t)
	o := NewOracle(g)

	sw := snapshot.NewWriter()
	meta := sw.Section("meta")
	meta.U32(1) // v1: no flags word
	meta.U64(uint64(o.G.NumVertices()))
	meta.U64(uint64(len(o.Blocks)))
	meta.U64(uint64(o.numA))
	meta.I64(o.Relaxations)
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
		bl.F64s(blk.Ear.SR) // v1: always float64, no kind tag
		bl.I64(blk.Ear.Relaxations)
		bl.U64(uint64(blk.Ear.sweeps))
	}
	fe := sw.Section("forest")
	fe.I32s(o.nodeParent)
	fe.I32s(o.nodeDepth)
	fe.I32s(o.nodeRoot)
	ae := sw.Section("aptable")
	ae.F64s(o.A) // v1: no kind tag
	if o.apGraph != nil {
		ae.U32(1)
		o.apGraph.EncodeSnapshot(ae)
		ae.I32s(o.apEdgeBlock)
	} else {
		ae.U32(0)
	}
	var buf bytes.Buffer
	if _, err := sw.WriteTo(&buf); err != nil {
		t.Fatalf("write v1: %v", err)
	}

	back, err := ReadOracle(&buf)
	if err != nil {
		t.Fatalf("read v1: %v", err)
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatalf("v1 restored invariants: %v", err)
	}
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, want := back.Query(int32(u), int32(v)), o.Query(int32(u), int32(v)); got != want {
				t.Fatalf("d(%d,%d) = %v restored, %v original", u, v, got, want)
			}
		}
	}
}
