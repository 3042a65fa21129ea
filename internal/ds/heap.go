// Package ds provides the low-level data structures shared by the shortest
// path and minimum cycle basis engines: an indexed binary heap for Dijkstra,
// a union-find structure, and the hybrid chunked list the paper uses to store candidate cycles
// (Section 3.3.2).
package ds

// IndexedHeap is a binary min-heap over the items 0..n-1 keyed by float64
// priorities. It supports DecreaseKey in O(log n), which is what Dijkstra
// needs. Items not currently in the heap have position -1.
//
// The zero value is not usable; construct with NewIndexedHeap.
type IndexedHeap struct {
	keys []float64 // keys[item] = current priority of item
	heap []int32   // heap[i] = item at heap position i
	pos  []int32   // pos[item] = heap position, or -1 if absent
}

// NewIndexedHeap returns an empty heap able to hold items 0..n-1.
func NewIndexedHeap(n int) *IndexedHeap {
	h := &IndexedHeap{
		keys: make([]float64, n),
		heap: make([]int32, 0, n),
		pos:  make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of items currently in the heap.
func (h *IndexedHeap) Len() int { return len(h.heap) }

// Contains reports whether item is currently in the heap.
func (h *IndexedHeap) Contains(item int32) bool { return h.pos[item] >= 0 }

// Key returns the priority most recently assigned to item via Push or
// DecreaseKey. The value is meaningful only while the item is in the heap or
// immediately after it has been popped.
func (h *IndexedHeap) Key(item int32) float64 { return h.keys[item] }

// Push inserts item with the given key. The item must not already be present.
func (h *IndexedHeap) Push(item int32, key float64) {
	h.keys[item] = key
	h.pos[item] = int32(len(h.heap))
	h.heap = append(h.heap, item)
	h.up(len(h.heap) - 1)
}

// DecreaseKey lowers the key of an item already in the heap. Keys may only
// decrease; increasing a key is a programming error and corrupts heap order.
func (h *IndexedHeap) DecreaseKey(item int32, key float64) {
	h.keys[item] = key
	h.up(int(h.pos[item]))
}

// PushOrDecrease inserts the item if absent, otherwise lowers its key if the
// new key is smaller. It reports whether the heap changed.
func (h *IndexedHeap) PushOrDecrease(item int32, key float64) bool {
	if h.pos[item] < 0 {
		h.Push(item, key)
		return true
	}
	if key < h.keys[item] {
		h.DecreaseKey(item, key)
		return true
	}
	return false
}

// Pop removes and returns the item with the minimum key.
// It panics if the heap is empty.
func (h *IndexedHeap) Pop() (item int32, key float64) {
	item = h.heap[0]
	key = h.keys[item]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[item] = -1
	if last > 0 {
		h.down(0)
	}
	return item, key
}

// Reset empties the heap without reallocating, so it can be reused across
// many Dijkstra runs from different sources.
func (h *IndexedHeap) Reset() {
	for _, it := range h.heap {
		h.pos[it] = -1
	}
	h.heap = h.heap[:0]
}

func (h *IndexedHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *IndexedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[h.heap[parent]] <= h.keys[h.heap[i]] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.keys[h.heap[l]] < h.keys[h.heap[smallest]] {
			smallest = l
		}
		if r < n && h.keys[h.heap[r]] < h.keys[h.heap[smallest]] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
