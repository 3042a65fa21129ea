package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the index of the span that caused it, or -1.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them once the run is over.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, req int64, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(name string, req int64, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// byName returns the durations of every closed span called name.
func (t *tracer) byName(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for every closed span called name, its duration
// minus the part of its interval covered by its direct children.
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans, name)
}

func selfTimes(spans []span, name string) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for i, s := range spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		out = append(out, s.dur()-covered(s, children[i]))
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's, so overlapping children (rows built in parallel for one
// batch) are not subtracted twice.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range ivs {
		if x.lo > curHi {
			total += curHi - curLo
			curLo, curHi = x.lo, x.hi
		} else if x.hi > curHi {
			curHi = x.hi
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
