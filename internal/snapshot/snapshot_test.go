package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// buildContainer writes a two-section container exercising every
// primitive.
func buildContainer(t *testing.T) []byte {
	t.Helper()
	w := NewWriter()
	a := w.Section("alpha")
	a.U32(7)
	a.U64(1 << 40)
	a.I32(-3)
	a.I64(-1 << 40)
	a.F64(math.Pi)
	a.I32s([]int32{1, -2, 3})
	a.F64s([]float64{0, math.Inf(1), -0.5})
	a.Bools([]bool{true, false, true, true, false, false, true, false, true})
	b := w.Section("beta")
	b.I32s(nil)
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := buildContainer(t)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !r.Has("alpha") || !r.Has("beta") || r.Has("gamma") {
		t.Fatalf("section presence wrong")
	}
	d, err := r.Section("alpha")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	if got := d.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<40 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I32(); got != -3 {
		t.Errorf("I32 = %d", got)
	}
	if got := d.I64(); got != -1<<40 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := d.I32s(); len(got) != 3 || got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Errorf("I32s = %v", got)
	}
	if got := d.F64s(); len(got) != 3 || got[0] != 0 || !math.IsInf(got[1], 1) || got[2] != -0.5 {
		t.Errorf("F64s = %v", got)
	}
	want := []bool{true, false, true, true, false, false, true, false, true}
	got := d.Bools()
	if len(got) != len(want) {
		t.Fatalf("Bools length %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Bools[%d] = %v", i, got[i])
		}
	}
	if err := d.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}
	if _, err := r.Section("gamma"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("missing section error = %v, want ErrCorrupt", err)
	}
}

func TestBadMagic(t *testing.T) {
	for _, in := range [][]byte{nil, []byte("EAR"), []byte("NOTASNAP-------------")} {
		if _, err := NewReader(bytes.NewReader(in)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("input %q: err = %v, want ErrBadMagic", in, err)
		}
	}
}

func TestVersionSkew(t *testing.T) {
	data := buildContainer(t)
	binary.LittleEndian.PutUint32(data[len(Magic):], Version+9)
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrVersionSkew) {
		t.Errorf("err = %v, want ErrVersionSkew", err)
	}
}

func TestChecksumCatchesPayloadFlips(t *testing.T) {
	data := buildContainer(t)
	headerEnd := headerLen + 2*entryLen
	for pos := headerEnd; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		if _, err := NewReader(bytes.NewReader(mut)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrChecksum", pos, err)
		}
	}
}

func TestTruncationIsTyped(t *testing.T) {
	data := buildContainer(t)
	for cut := 0; cut < len(data); cut += 5 {
		_, err := NewReader(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
}

func TestDecoderSticky(t *testing.T) {
	d := &Decoder{b: []byte{1, 2}}
	if got := d.U64(); got != 0 {
		t.Errorf("short U64 = %d", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("Err = %v, want ErrCorrupt", d.Err())
	}
	// Oversized counts must not allocate.
	d2 := &Decoder{b: binary.LittleEndian.AppendUint64(nil, 1<<62)}
	if got := d2.I32s(); got != nil {
		t.Errorf("oversized I32s = %v", got)
	}
	if !errors.Is(d2.Err(), ErrCorrupt) {
		t.Errorf("oversized count Err = %v", d2.Err())
	}
	// Trailing bytes are an error at Finish.
	d3 := &Decoder{b: []byte{0, 0, 0, 0, 99}}
	d3.U32()
	if err := d3.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Finish with trailing bytes = %v", err)
	}
}

func TestU8RoundTrip(t *testing.T) {
	w := NewWriter()
	s := w.Section("bytes")
	s.U8(0)
	s.U8(2)
	s.U8(255)
	s.U32(9)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Section("bytes")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint8{0, 2, 255} {
		if got := d.U8(); got != want {
			t.Fatalf("U8 = %d, want %d", got, want)
		}
	}
	if got := d.U32(); got != 9 {
		t.Fatalf("U32 after U8s = %d", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	// Reading past the end is a sticky typed error, not a panic.
	d2, _ := r.Section("bytes")
	for i := 0; i < 8; i++ {
		d2.U8()
	}
	d2.U8()
	if !errors.Is(d2.Err(), ErrCorrupt) {
		t.Fatalf("overread err = %v, want ErrCorrupt", d2.Err())
	}
}

func TestStrRoundTrip(t *testing.T) {
	w := NewWriter()
	e := w.Section("strs")
	e.Str("")
	e.Str("batch_matrix")
	e.Str("qe: overloaded, admission queue full")
	e.Str("héllo\x00world") // arbitrary bytes, embedded NUL included
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, err := r.Section("strs")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"", "batch_matrix", "qe: overloaded, admission queue full", "héllo\x00world"} {
		if got := d.Str(); got != want {
			t.Errorf("Str() = %q, want %q", got, want)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestStrTruncated(t *testing.T) {
	// A declared length longer than the remaining bytes is the sticky
	// typed error, never a huge allocation or panic.
	d := &Decoder{b: binary.LittleEndian.AppendUint64(nil, 1<<40)}
	if got := d.Str(); got != "" {
		t.Fatalf("truncated Str() = %q", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Err() = %v, want ErrCorrupt", d.Err())
	}
}
