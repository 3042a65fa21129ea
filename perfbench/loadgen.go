package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the load generator's connection budget: one per vCPU of
// the two-vCPU machines the benchmark is sized for.
const maxConns = 2

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: maxConns,
			MaxConnsPerHost:     maxConns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// send issues one read and returns its status and body.
func send(cl *http.Client, base string, r request) (int, []byte, error) {
	var resp *http.Response
	var err error
	if r.sources != nil {
		body, _ := json.Marshal(struct {
			Sources []int32 `json:"sources"`
			Targets []int32 `json:"targets"`
		}{r.sources, r.targets})
		resp, err = cl.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	} else {
		resp, err = cl.Get(base + "/v1/distance?u=" + strconv.Itoa(int(r.u)) + "&v=" + strconv.Itoa(int(r.v)))
	}
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// pairsOf is how many distance entries a read asks for.
func pairsOf(r request) int {
	if r.sources != nil {
		return len(r.sources) * len(r.targets)
	}
	return 1
}

// sample is one read of the window.
type sample struct {
	done  time.Time
	lat   float64 // ms
	ok    bool
	pairs int // distance entries answered, when ok
}

// loadResult is what one load phase (one part of the window) measured.
type loadResult struct {
	samples []sample
	lag     []float64 // ms, how late each read was sent
	tally   tally
	start   time.Time
	window  time.Duration
}

// worker is one connection's share of a load phase.
type worker struct {
	samples []sample
	lag     []float64
	tally   tally
}

// record files one finished read with its latency and how late it was
// sent.
func (w *worker) record(o outcome, r request, lat, lag time.Duration, done time.Time) {
	w.tally.add(o)
	s := sample{done: done, lat: ms(lat), ok: o == okAnswer}
	if s.ok {
		s.pairs = pairsOf(r)
	}
	w.samples = append(w.samples, s)
	w.lag = append(w.lag, ms(lag))
}

func merge(ws []*worker, start time.Time, window time.Duration) *loadResult {
	res := &loadResult{start: start, window: window}
	for _, w := range ws {
		res.samples = append(res.samples, w.samples...)
		res.lag = append(res.lag, w.lag...)
		res.tally.merge(w.tally)
	}
	return res
}

// parts is how many equal parts the measured window is cut into.
const parts = 15

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowStats are the end-to-end figures of a window measured in parts.
type windowStats struct {
	rps, pairsPerS float64 // successful reads and distance entries per second
	p50, p99       float64 // ms
}

// summarize takes the median over the window's parts of the rate of
// successful reads, the rate of distance entries answered, and the p50 and
// p99 latency, so a slow spell of the machine that spans one part moves
// one value of each median, not the figure. When a part is too small for
// its p99 (fewer than 1000 reads), the p99 is taken over all parts
// together. Reads that finish after their part count in no rate.
func summarize(ps []*loadResult) (windowStats, error) {
	var st windowStats
	var rates, prates, p50s, p99s, all []float64
	partP99 := true
	for i, l := range ps {
		var lats []float64
		oks, pairs := 0, 0
		for _, s := range l.samples {
			all = append(all, s.lat)
			if s.done.Sub(l.start) > l.window {
				continue
			}
			lats = append(lats, s.lat)
			if s.ok {
				oks++
				pairs += s.pairs
			}
		}
		rates = append(rates, float64(oks)/l.window.Seconds())
		prates = append(prates, float64(pairs)/l.window.Seconds())
		p, err := percentile(lats, 0.5)
		if err != nil {
			return st, fmt.Errorf("part %d of the window: %w", i, err)
		}
		p50s = append(p50s, p)
		if p, err = percentile(lats, 0.99); err != nil {
			partP99 = false
		}
		p99s = append(p99s, p)
	}
	st.rps, st.pairsPerS, st.p50, st.p99 = median(rates), median(prates), median(p50s), median(p99s)
	if !partP99 {
		var err error
		if st.p99, err = percentile(all, 0.99); err != nil {
			return st, fmt.Errorf("window: %w", err)
		}
	}
	return st, nil
}

// combine merges the parts' counts and samples into one result.
func combine(ps []*loadResult) *loadResult {
	out := &loadResult{}
	for _, l := range ps {
		out.samples = append(out.samples, l.samples...)
		out.lag = append(out.lag, l.lag...)
		out.tally.merge(l.tally)
		out.window += l.window
	}
	return out
}

// phases of a load run, shared with the workers; a run starts warming.
const (
	warming int32 = iota
	measuring
	stopped
)

// closedLoop runs one worker per request stream, each sending its next read when
// the previous one has completed. It warms up until warm returns, then
// measures for d. A closed-loop read is due when the previous one
// completed, so its lag is the generator's own turnaround.
func closedLoop(cl *http.Client, base string, streams []func() request, chk *checker, warm func() error, d time.Duration) (*loadResult, error) {
	var phase atomic.Int32
	ws := make([]*worker, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		w := &worker{}
		ws[i] = w
		wg.Add(1)
		go func(next func() request) {
			defer wg.Done()
			due := time.Now()
			for {
				ph := phase.Load()
				if ph == stopped {
					return
				}
				r := next()
				sent := time.Now()
				status, body, err := send(cl, base, r)
				done := time.Now()
				if ph == measuring {
					o := classify(status, err)
					if o == okAnswer {
						o = chk.check(r, body)
					}
					w.record(o, r, done.Sub(sent), sent.Sub(due), done)
				}
				due = done
			}
		}(st)
	}
	err := warm()
	start := time.Now()
	if err == nil {
		phase.Store(measuring)
		time.Sleep(d)
	}
	phase.Store(stopped)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return merge(ws, start, d), nil
}
