package main

import (
	"fmt"
	"math/rand"

	"repro/internal/apsp"
	"repro/internal/datasets"
	"repro/internal/graph"
)

// graphSpec names a Table 1 stand-in at a scale; the seed comes from the
// benchmark's --seed.
type graphSpec struct {
	dataset string
	scale   float64
}

func (s graphSpec) generate(seed uint64) (*graph.Graph, error) {
	spec, err := datasets.ByName(s.dataset)
	if err != nil {
		return nil, err
	}
	return spec.Generate(s.scale, seed), nil
}

type traffic int

const (
	pointZipf    traffic = iota // GET /v1/distance, Zipf sources, uniform targets
	pointUniform                // GET /v1/distance, uniform pairs (the post-window check)
	batchUniform                // POST /v1/batch, 16×16 uniform vertices
)

// workload is one traffic mix over one served graph. The names and
// reasons are mirrored in BENCHMARK.json and README.md of this directory.
type workload struct {
	name      string
	serve     graphSpec // served by the workload's daemon
	cacheRows int       // oracled -cache-rows; 0 keeps the default
	traffic   traffic
	conns     int // closed-loop client connections, at most maxConns
}

// Every workload also times the paper's offline side on the same two
// graphs: cmd/apsp building the oracle of buildSpec, whose many small
// blocks make the articulation-point table the largest build phase
// (build_s), and cmd/mcb computing the basis of mcbSpec (mcb_s).
var (
	buildSpec = graphSpec{"Rajat26", 0.08}
	mcbSpec   = graphSpec{"as-22july06", 0.04}
)

// One connection drives batch-uniform: a batch already keeps both vCPUs
// busy through hetero, so a second client only contended with the daemon
// for the two vCPUs and tripled the run-to-run spread of its latencies.
var workloads = []workload{
	{name: "point-zipf", serve: graphSpec{"as-22july06", 0.35}, traffic: pointZipf, conns: 2},
	{name: "batch-uniform", serve: graphSpec{"as-22july06", 0.35}, cacheRows: 512, traffic: batchUniform, conns: 1},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	batchSide = 16  // sources and targets per /v1/batch
	zipfS     = 1.1 // Zipf exponent of hot sources
	maxWeight = 100 // largest weight a delta sets, as the stand-ins use
)

// request is one read: a point pair, or a batch when sources is set.
type request struct {
	u, v             int32
	sources, targets []int32
}

// stream generates one connection's reads. Every stream of a run shares
// the seed's permutation of vertices, so the Zipf-hot sources are the same
// vertices on every connection.
type stream struct {
	kind traffic
	n    int
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newStream(seed uint64, conn int, n int, kind traffic) *stream {
	s := &stream{
		kind: kind,
		n:    n,
		rng:  rand.New(rand.NewSource(int64(seed*1_000_003 + uint64(conn) + 1))),
		perm: rand.New(rand.NewSource(int64(seed))).Perm(n),
	}
	if kind == pointZipf {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(n-1))
	}
	return s
}

func (s *stream) vertex() int32 { return int32(s.rng.Intn(s.n)) }

func (s *stream) next() request {
	switch s.kind {
	case batchUniform:
		r := request{sources: make([]int32, batchSide), targets: make([]int32, batchSide)}
		for i := range r.sources {
			r.sources[i] = s.vertex()
			r.targets[i] = s.vertex()
		}
		return r
	case pointZipf:
		return request{u: int32(s.perm[s.zipf.Uint64()]), v: s.vertex()}
	default:
		return request{u: s.vertex(), v: s.vertex()}
	}
}

// hot returns the k vertices a Zipf stream requests most.
func (s *stream) hot(k int) []int32 {
	out := make([]int32, min(k, s.n))
	for i := range out {
		out[i] = int32(s.perm[i])
	}
	return out
}

// deltaStream generates weight changes to uniform edges of a graph with m
// edges.
type deltaStream struct {
	m   int
	rng *rand.Rand
}

func newDeltaStream(seed uint64, m int) *deltaStream {
	return &deltaStream{m: m, rng: rand.New(rand.NewSource(int64(seed*7_919 + 17)))}
}

func (d *deltaStream) next() apsp.Delta {
	return apsp.Delta{Kind: apsp.DeltaWeight, Edge: int32(d.rng.Intn(d.m)), W: graph.Weight(1 + d.rng.Intn(maxWeight))}
}
