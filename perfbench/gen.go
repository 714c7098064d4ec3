package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mm"
)

// Input is one generated matrix: the graph the benchmark keeps for
// checking answers and the Matrix Market bytes the daemon receives.
type Input struct {
	Name  string
	Graph *graph.Graph
	Body  []byte
}

// Doc is one /v1/order/batch document: its items and the JSON body that
// carries them.
type Doc struct {
	Items []*Input
	Body  []byte
}

// Suite scales and sizes. At coldScale, 7 of the 18 stand-ins fall below
// core.AutoThreshold (direct Lanczos) and 11 above it (multilevel).
const (
	coldScale  = 0.25
	batchScale = 0.5
	// warmSet stays within the daemon's default 8-graph cache.
	warmSet = 8
	// autoSet is more than twice the default cache, so cycling it misses
	// tier 1. It is odd, so the median latency falls inside one union's
	// samples rather than on the edge between two, and with 3 parts
	// each of the 17 stand-ins it draws from appears in exactly 3 unions.
	autoSet   = 17
	autoParts = 3
	// A batch document holds batchShifts relabellings of each of the
	// batchBases smallest stand-ins, all below the crossover at batchScale.
	batchBases  = 6
	batchShifts = 8
)

// Generator makes the inputs of one (workload, seed) pair. Every matrix it
// hands out is a seeded cyclic relabelling u → (u+k) mod n of a suite
// stand-in: the relabelling changes the content fingerprint but keeps the
// generator's locality, so SpMV cost stays that of the stand-in. A shift
// that reproduces a matrix already handed out (an automorphism of the
// stand-in) is skipped, so every input is content-new.
type Generator struct {
	*rand.Rand
	bases  []base
	shifts [][]int
	seen   map[graph.Fingerprint]bool
}

type base struct {
	name string
	g    *graph.Graph
}

// NewGenerator builds the generator of a workload. Equal (workload, seed)
// pairs yield byte-identical inputs in the same order.
func NewGenerator(workload string, seed int64) (*Generator, error) {
	specs := gen.Specs()
	scale := coldScale
	switch workload {
	case "cold-spectral":
	case "warm-repeat":
		specs = bySize(specs, warmSet, true)
	case "auto-churn":
		// IN3C is left out: five times the next largest stand-in, the
		// unions holding it would take most of each pass.
		specs = slices.DeleteFunc(specs, func(s gen.Spec) bool { return s.Name == "IN3C" })
	case "batch-small":
		scale = batchScale
		specs = bySize(specs, batchBases, false)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	g := &Generator{Rand: rand.New(rand.NewSource(seed)), seen: map[graph.Fingerprint]bool{}}
	for _, s := range specs {
		p := s.Generate(scale, seed)
		g.bases = append(g.bases, base{name: s.Name, g: p.G})
		// Shifts 1..n-1 in seeded order; each is used at most once.
		perm := g.Perm(p.G.N() - 1)
		for i := range perm {
			perm[i]++
		}
		g.shifts = append(g.shifts, perm)
	}
	return g, nil
}

// bySize returns the k specs with the largest (desc) or smallest paper
// order, in suite order.
func bySize(specs []gen.Spec, k int, desc bool) []gen.Spec {
	sorted := slices.Clone(specs)
	slices.SortStableFunc(sorted, func(a, b gen.Spec) int {
		if desc {
			return b.PaperN - a.PaperN
		}
		return a.PaperN - b.PaperN
	})
	keep := map[string]bool{}
	for _, s := range sorted[:k] {
		keep[s.Name] = true
	}
	return slices.DeleteFunc(slices.Clone(specs), func(s gen.Spec) bool { return !keep[s.Name] })
}

// Bases returns the number of stand-ins the generator relabels.
func (g *Generator) Bases() int { return len(g.bases) }

// relabel returns stand-in b under its next unused cyclic shift.
func (g *Generator) relabel(b int) (*graph.Graph, error) {
	src := g.bases[b].g
	for len(g.shifts[b]) > 0 {
		k := g.shifts[b][0]
		g.shifts[b] = g.shifts[b][1:]
		out := shift(src, k)
		fp := graph.FingerprintOf(out)
		if !g.seen[fp] {
			g.seen[fp] = true
			return out, nil
		}
	}
	return nil, fmt.Errorf("generator: %s has no unused relabelling left", g.bases[b].name)
}

// shift returns g relabelled by u → (u+k) mod n.
func shift(g *graph.Graph, k int) *graph.Graph {
	n := g.N()
	xadj := make([]int32, n+1)
	adj := make([]int32, 0, len(g.Adj))
	for w := 0; w < n; w++ {
		u := (w - k + n) % n
		start := len(adj)
		for _, v := range g.Neighbors(u) {
			adj = append(adj, int32((int(v)+k)%n))
		}
		slices.Sort(adj[start:])
		xadj[w+1] = int32(len(adj))
	}
	return &graph.Graph{Xadj: xadj, Adj: adj}
}

// union returns the disjoint union of parts, each occupying a contiguous
// block of labels in order.
func union(parts []*graph.Graph) *graph.Graph {
	n, arcs := 0, 0
	for _, p := range parts {
		n += p.N()
		arcs += len(p.Adj)
	}
	xadj := make([]int32, 1, n+1)
	adj := make([]int32, 0, arcs)
	off := int32(0)
	for _, p := range parts {
		for v := 0; v < p.N(); v++ {
			for _, w := range p.Neighbors(v) {
				adj = append(adj, w+off)
			}
			xadj = append(xadj, int32(len(adj)))
		}
		off += int32(p.N())
	}
	return &graph.Graph{Xadj: xadj, Adj: adj}
}

func encode(name string, g *graph.Graph) (*Input, error) {
	var buf bytes.Buffer
	if err := mm.WriteGraph(&buf, g); err != nil {
		return nil, fmt.Errorf("generator: encoding %s: %w", name, err)
	}
	return &Input{Name: name, Graph: g, Body: buf.Bytes()}, nil
}

// Next returns the next single-matrix input, cycling through the stand-ins
// in suite order.
func (g *Generator) Next(i int) (*Input, error) {
	b := i % len(g.bases)
	rg, err := g.relabel(b)
	if err != nil {
		return nil, err
	}
	return encode(g.bases[b].name, rg)
}

// Union returns a disjoint union of autoParts relabelled stand-ins. Union i
// takes stand-ins 3i, 3i+1, 3i+2 (mod the suite), so consecutive unions
// cover the whole suite.
func (g *Generator) Union(i int) (*Input, error) {
	parts := make([]*graph.Graph, autoParts)
	name := ""
	for p := range parts {
		b := (autoParts*i + p) % len(g.bases)
		rg, err := g.relabel(b)
		if err != nil {
			return nil, err
		}
		parts[p] = rg
		if p > 0 {
			name += "+"
		}
		name += g.bases[b].name
	}
	return encode(name, union(parts))
}

// batchItem mirrors the daemon's batch item wire format.
type batchItem struct {
	MatrixMarket string `json:"matrix_market"`
}

// Doc returns the next batch document: batchShifts relabellings of every
// stand-in, interleaved.
func (g *Generator) Doc() (*Doc, error) {
	d := &Doc{}
	wire := struct {
		Algorithm string      `json:"algorithm"`
		Items     []batchItem `json:"items"`
	}{Algorithm: "SPECTRAL"}
	for r := 0; r < batchShifts; r++ {
		for b := range g.bases {
			in, err := g.Next(b)
			if err != nil {
				return nil, err
			}
			d.Items = append(d.Items, in)
			wire.Items = append(wire.Items, batchItem{MatrixMarket: string(in.Body)})
		}
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, fmt.Errorf("generator: encoding batch: %w", err)
	}
	d.Body = body
	return d, nil
}
