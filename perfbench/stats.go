package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a median at least 20.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses, with an error, a percentile that fewer than minTail samples lie
// beyond, since such a tail is one or two outliers rather than a
// measurement.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It is for a handful of repetitions, such as
// set-ups within one run, where the percentile rule cannot apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// outcome classifies one request.
type outcome int

const (
	okAnswer outcome = iota
	refused          // 503/504: the server shed the request or missed its deadline
	errored          // transport error or any other non-200 status
	mismatch         // 200 with an answer that disagrees with the reference
)

// classify maps a transport result to an outcome; an answer that arrives
// with 200 is okAnswer until a check says otherwise.
func classify(status int, err error) outcome {
	switch {
	case err != nil:
		return errored
	case status == http.StatusOK:
		return okAnswer
	case status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout:
		return refused
	default:
		return errored
	}
}

// tally counts outcomes against the number attempted. Every outcome other
// than okAnswer is a failure.
type tally struct {
	attempted, refused, errored, mismatched int
}

func (t *tally) add(o outcome) {
	t.attempted++
	switch o {
	case refused:
		t.refused++
	case errored:
		t.errored++
	case mismatch:
		t.mismatched++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.refused += o.refused
	t.errored += o.errored
	t.mismatched += o.mismatched
}

func (t tally) failed() int { return t.refused + t.errored + t.mismatched }

// successFrac is 1 − failed/attempted.
func (t tally) successFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed())/float64(t.attempted)
}
