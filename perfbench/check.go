package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/sssp"
)

// checker holds reference distance rows, computed with the sssp package's
// Dijkstra on the generated graph, for a sample of sources. Answers for
// other sources are not checked in the measured window.
type checker struct {
	rows map[int32][]graph.Weight
}

func newChecker(g *graph.Graph, sources []int32) *checker {
	c := &checker{rows: make(map[int32][]graph.Weight, len(sources))}
	sc := sssp.NewScratch(g.NumVertices())
	for _, s := range sources {
		if _, ok := c.rows[s]; ok {
			continue
		}
		row := make([]graph.Weight, g.NumVertices())
		sssp.DistancesOnly(g, s, row, sc)
		c.rows[s] = row
	}
	return c
}

func (c *checker) has(src int32) bool { _, ok := c.rows[src]; return ok }

// pointResponse mirrors oracled's /v1/distance body.
type pointResponse struct {
	U         int32    `json:"u"`
	V         int32    `json:"v"`
	Reachable bool     `json:"reachable"`
	Distance  *float64 `json:"distance"`
}

// checkPoint compares a /v1/distance body with the reference; it returns
// okAnswer when the source has no reference row.
func (c *checker) checkPoint(u, v int32, body []byte) outcome {
	row, ok := c.rows[u]
	if !ok {
		return okAnswer
	}
	var r pointResponse
	if err := json.Unmarshal(body, &r); err != nil || r.U != u || r.V != v {
		return mismatch
	}
	return sameDistance(row[v], r.Reachable, r.Distance)
}

func sameDistance(want graph.Weight, reachable bool, got *float64) outcome {
	if want >= sssp.Inf {
		if reachable || got != nil {
			return mismatch
		}
		return okAnswer
	}
	if !reachable || got == nil || *got != want {
		return mismatch
	}
	return okAnswer
}

// checkBatch compares the rows of a /v1/batch body whose sources have a
// reference row. Unreachable pairs come back as -1.
func (c *checker) checkBatch(req request, body []byte) outcome {
	checkable := false
	for _, s := range req.sources {
		checkable = checkable || c.has(s)
	}
	if !checkable {
		return okAnswer
	}
	var r struct {
		Distances [][]float64 `json:"distances"`
	}
	if err := json.Unmarshal(body, &r); err != nil || len(r.Distances) != len(req.sources) {
		return mismatch
	}
	for i, s := range req.sources {
		row, ok := c.rows[s]
		if !ok {
			continue
		}
		if len(r.Distances[i]) != len(req.targets) {
			return mismatch
		}
		for j, t := range req.targets {
			want := row[t]
			if want >= sssp.Inf {
				want = -1
			}
			if r.Distances[i][j] != want {
				return mismatch
			}
		}
	}
	return okAnswer
}

// check dispatches on the request shape.
func (c *checker) check(req request, body []byte) outcome {
	if req.sources != nil {
		return c.checkBatch(req, body)
	}
	return c.checkPoint(req.u, req.v, body)
}

var (
	mcbDimRE   = regexp.MustCompile(`cycle space dimension (\d+)`)
	mcbTotalRE = regexp.MustCompile(`MCB: (\d+) cycles, total weight (\S+)`)
	cycleRE    = regexp.MustCompile(`^\s*cycle \d+: weight (\S+), (\d+) edges:(.*)$`)
	edgeRE     = regexp.MustCompile(`\((\d+)-(\d+)\)`)
)

// mcbSummary is what cmd/mcb prints about a basis.
type mcbSummary struct {
	dim, cycles int
	weight      float64
}

func parseMCB(out string) (mcbSummary, error) {
	d := mcbDimRE.FindStringSubmatch(out)
	t := mcbTotalRE.FindStringSubmatch(out)
	if d == nil || t == nil {
		return mcbSummary{}, fmt.Errorf("mcb output lacks its summary lines")
	}
	var s mcbSummary
	s.dim, _ = strconv.Atoi(d[1])
	s.cycles, _ = strconv.Atoi(t[1])
	w, err := strconv.ParseFloat(t[2], 64)
	if err != nil {
		return s, fmt.Errorf("mcb total weight %q: %v", t[2], err)
	}
	s.weight = w
	return s, nil
}

// certifyBasis checks a basis as cmd/mcb -print lists it: there are
// m − n + c cycles, each is an edge set of g in which every vertex has even
// degree, each weighs what is printed, the cycles are independent over
// GF(2), and the weights add up to the printed total.
func certifyBasis(g *graph.Graph, out string, sum mcbSummary) error {
	n, m := g.NumVertices(), g.NumEdges()
	want := m - n + graph.CountComponents(g)
	if sum.dim != want || sum.cycles != want {
		return fmt.Errorf("basis has dimension %d and %d cycles, want m-n+c = %d", sum.dim, sum.cycles, want)
	}
	edgeID := make(map[[2]int32]int32, m)
	for id, e := range g.Edges() {
		k := [2]int32{min(e.U, e.V), max(e.U, e.V)}
		if old, dup := edgeID[k]; !dup || e.W < g.Edge(old).W {
			edgeID[k] = int32(id)
		}
	}
	words := (m + 63) / 64
	var basis [][]uint64 // reduced rows, each with a distinct pivot
	var pivots []int
	var total float64
	cycles := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		f := cycleRE.FindStringSubmatch(sc.Text())
		if f == nil {
			continue
		}
		cycles++
		w, _ := strconv.ParseFloat(f[1], 64)
		vec := make([]uint64, words)
		deg := make(map[int32]int)
		var sumW float64
		for _, e := range edgeRE.FindAllStringSubmatch(f[3], -1) {
			u, _ := strconv.Atoi(e[1])
			v, _ := strconv.Atoi(e[2])
			id, ok := edgeID[[2]int32{int32(min(u, v)), int32(max(u, v))}]
			if !ok {
				return fmt.Errorf("cycle %d uses (%d-%d), not an edge of the graph", cycles, u, v)
			}
			vec[id/64] ^= 1 << (id % 64)
			deg[int32(u)]++
			deg[int32(v)]++
			sumW += g.Edge(id).W
		}
		for v, d := range deg {
			if d%2 != 0 {
				return fmt.Errorf("cycle %d is not closed at vertex %d", cycles, v)
			}
		}
		if sumW != w {
			return fmt.Errorf("cycle %d weighs %g, printed %g", cycles, sumW, w)
		}
		total += w
		for i, row := range basis {
			if vec[pivots[i]/64]>>(pivots[i]%64)&1 == 1 {
				for k := range vec {
					vec[k] ^= row[k]
				}
			}
		}
		p := firstBit(vec)
		if p < 0 {
			return fmt.Errorf("cycle %d depends on the cycles before it", cycles)
		}
		basis = append(basis, vec)
		pivots = append(pivots, p)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if cycles != want {
		return fmt.Errorf("listed %d cycles, want %d", cycles, want)
	}
	if total != sum.weight {
		return fmt.Errorf("listed cycles weigh %g, printed total %g", total, sum.weight)
	}
	return nil
}

func firstBit(vec []uint64) int {
	for i, w := range vec {
		if w != 0 {
			for b := 0; b < 64; b++ {
				if w>>b&1 == 1 {
					return i*64 + b
				}
			}
		}
	}
	return -1
}
