package ds

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIndexedHeapBasic(t *testing.T) {
	h := NewIndexedHeap(10)
	if h.Len() != 0 {
		t.Fatal("new heap not empty")
	}
	h.Push(3, 5.0)
	h.Push(7, 1.0)
	h.Push(2, 3.0)
	if !h.Contains(3) || h.Contains(4) {
		t.Fatal("Contains wrong")
	}
	if item, key := h.Pop(); item != 7 || key != 1.0 {
		t.Fatalf("pop got (%d,%v)", item, key)
	}
	h.DecreaseKey(3, 0.5)
	if item, _ := h.Pop(); item != 3 {
		t.Fatalf("decrease-key not honoured, popped %d", item)
	}
	if item, _ := h.Pop(); item != 2 {
		t.Fatalf("expected 2, got %d", item)
	}
	if h.Len() != 0 {
		t.Fatal("heap should be empty")
	}
}

func TestIndexedHeapPushOrDecrease(t *testing.T) {
	h := NewIndexedHeap(5)
	if !h.PushOrDecrease(0, 10) {
		t.Fatal("first push should change heap")
	}
	if h.PushOrDecrease(0, 20) {
		t.Fatal("increase must be ignored")
	}
	if !h.PushOrDecrease(0, 5) {
		t.Fatal("decrease should change heap")
	}
	if k := h.Key(0); k != 5 {
		t.Fatalf("key = %v, want 5", k)
	}
}

// Property: popping everything yields keys in non-decreasing order, for any
// input sequence.
func TestIndexedHeapSortProperty(t *testing.T) {
	f := func(keys []float64) bool {
		if len(keys) > 500 {
			keys = keys[:500]
		}
		h := NewIndexedHeap(len(keys))
		for i, k := range keys {
			h.Push(int32(i), k)
		}
		prev := math.Inf(-1)
		for h.Len() > 0 {
			_, k := h.Pop()
			if k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedHeapReset(t *testing.T) {
	h := NewIndexedHeap(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Reset()
	if h.Len() != 0 || h.Contains(0) || h.Contains(1) {
		t.Fatal("reset did not clear")
	}
	h.Push(1, 5)
	if item, key := h.Pop(); item != 1 || key != 5 {
		t.Fatal("heap unusable after reset")
	}
}

func TestIndexedHeapRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		h := NewIndexedHeap(n)
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.Float64() * 100
			h.Push(int32(i), keys[i])
		}
		// random decreases
		for d := 0; d < n/2; d++ {
			i := int32(rng.Intn(n))
			keys[i] *= rng.Float64()
			h.DecreaseKey(i, keys[i])
		}
		want := append([]float64(nil), keys...)
		sort.Float64s(want)
		for i := 0; i < n; i++ {
			_, k := h.Pop()
			if k != want[i] {
				t.Fatalf("trial %d: pop %d got key %v want %v", trial, i, k, want[i])
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(6)
	if u.Sets() != 6 {
		t.Fatal("wrong initial set count")
	}
	if !u.Union(0, 1) || !u.Union(2, 3) {
		t.Fatal("unions failed")
	}
	if u.Union(1, 0) {
		t.Fatal("repeated union should report false")
	}
	if !u.Connected(0, 1) || u.Connected(0, 2) {
		t.Fatal("connectivity wrong")
	}
	u.Union(1, 3)
	if !u.Connected(0, 2) {
		t.Fatal("transitive connectivity wrong")
	}
	if u.Sets() != 3 {
		t.Fatalf("sets = %d, want 3", u.Sets())
	}
}

// Property: union-find agrees with a naive label array.
func TestUnionFindProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const n = 40
		u := NewUnionFind(n)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		relabel := func(from, to int) {
			for i := range labels {
				if labels[i] == from {
					labels[i] = to
				}
			}
		}
		for _, op := range ops {
			x := int32(op % n)
			y := int32((op / n) % n)
			u.Union(x, y)
			relabel(labels[x], labels[y])
		}
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				if u.Connected(i, j) != (labels[i] == labels[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedListAppendScan(t *testing.T) {
	l := NewChunkedList(4)
	for i := uint32(0); i < 10; i++ {
		l.Append(i)
	}
	if l.Len() != 10 {
		t.Fatalf("len %d", l.Len())
	}
	got := l.Collect()
	for i, v := range got {
		if v != uint32(i) {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

func TestChunkedListRemove(t *testing.T) {
	l := NewChunkedList(4)
	for i := uint32(0); i < 12; i++ {
		l.Append(i)
	}
	// remove all even values via scan cursors
	for v := uint32(0); v < 12; v += 2 {
		target := v
		cur, found := l.Scan(func(x uint32) bool { return x != target })
		if !found {
			t.Fatalf("value %d not found", v)
		}
		l.Remove(cur)
	}
	if l.Len() != 6 {
		t.Fatalf("len %d after removals", l.Len())
	}
	for i, v := range l.Collect() {
		if v != uint32(2*i+1) {
			t.Fatalf("odd values expected, got %v", l.Collect())
		}
	}
	// one more removal through a fresh cursor
	cur, _ := l.Scan(func(x uint32) bool { return false })
	l.Remove(cur)
	if l.Len() != 5 {
		t.Fatalf("len %d", l.Len())
	}
}

func TestChunkedListEarlyExitAndResume(t *testing.T) {
	l := NewChunkedList(3)
	for i := uint32(0); i < 9; i++ {
		l.Append(i * 10)
	}
	cur, found := l.Scan(func(x uint32) bool { return x < 40 })
	if !found {
		t.Fatal("expected early exit")
	}
	var rest []uint32
	l.ScanFrom(cur, func(x uint32) bool {
		rest = append(rest, x)
		return true
	})
	if len(rest) != 4 || rest[0] != 50 {
		t.Fatalf("resume wrong: %v", rest)
	}
}

func TestChunkedListCompaction(t *testing.T) {
	l := NewChunkedList(8)
	for i := uint32(0); i < 8; i++ {
		l.Append(i)
	}
	// removing half the chunk triggers compaction; order must survive
	for _, v := range []uint32{0, 2, 4, 6} {
		target := v
		cur, ok := l.Scan(func(x uint32) bool { return x != target })
		if !ok {
			t.Fatalf("missing %d", v)
		}
		l.Remove(cur)
	}
	got := l.Collect()
	want := []uint32{1, 3, 5, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after compaction got %v", got)
		}
	}
}

// Boundary payloads: the former encoding reserved bit 31 of the payload
// word and panicked at 2³¹; the widened 64-bit storage must round-trip the
// full uint32 range, survive removal marking, and keep compaction correct.
func TestChunkedListFullPayloadRange(t *testing.T) {
	vals := []uint32{0, 1<<31 - 1, 1 << 31, 1<<31 + 1, math.MaxUint32}
	l := NewChunkedList(4)
	for _, v := range vals {
		l.Append(v)
	}
	if got := l.Collect(); len(got) != len(vals) {
		t.Fatalf("collected %d values, want %d", len(got), len(vals))
	} else {
		for i, v := range vals {
			if got[i] != v {
				t.Fatalf("got[%d] = %d, want %d", i, got[i], v)
			}
		}
	}
	// Remove the MSB-set values; marking must not corrupt neighbours.
	for _, target := range []uint32{1 << 31, math.MaxUint32} {
		cur, ok := l.Scan(func(x uint32) bool { return x != target })
		if !ok {
			t.Fatalf("value %d not found", target)
		}
		l.Remove(cur)
	}
	got := l.Collect()
	want := []uint32{0, 1<<31 - 1, 1<<31 + 1}
	if len(got) != len(want) {
		t.Fatalf("after removal got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after removal got %v, want %v", got, want)
		}
	}
}

// Property: a chunked list with random interleaved appends and removals
// behaves like a slice.
func TestChunkedListProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		l := NewChunkedList(5)
		var ref []uint32
		next := uint32(0)
		for _, op := range ops {
			if op%3 != 0 || len(ref) == 0 {
				l.Append(next)
				ref = append(ref, next)
				next++
			} else {
				// remove the k-th live element
				k := int(op/3) % len(ref)
				target := ref[k]
				cur, ok := l.Scan(func(x uint32) bool { return x != target })
				if !ok {
					return false
				}
				l.Remove(cur)
				ref = append(ref[:k], ref[k+1:]...)
			}
		}
		got := l.Collect()
		if len(got) != len(ref) {
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
