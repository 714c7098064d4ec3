package multilevel

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/linalg"
	"repro/internal/scratch"
)

// refineFixture builds one contraction level with warm ws-backed storage
// plus everything the V-cycle refinement step needs: the fine operator, a
// coarse vector and a reusable shifted-operator shell.
type refineFixture struct {
	ws      *scratch.Workspace
	g       *graph.Graph
	c       *Contraction
	op      laplacian.Interface
	shifted *linalg.ShiftedOp
	coarseX []float64
	x       []float64
}

func newRefineFixture(side int) *refineFixture {
	g := graph.Grid(side, side)
	ws := scratch.New()
	c := ContractWS(ws, g, 1)
	coarseX := make([]float64, c.Coarse.N())
	for i := range coarseX {
		coarseX[i] = float64(i%17) - 8
	}
	linalg.ProjectOutOnes(coarseX)
	linalg.Normalize(coarseX)
	return &refineFixture{
		ws:      ws,
		g:       g,
		c:       c,
		op:      laplacian.AutoFrom(g, make([]float64, g.N())),
		shifted: &linalg.ShiftedOp{},
		coarseX: coarseX,
		x:       make([]float64, g.N()),
	}
}

// refine runs one interpolate + smooth + RQI step — the steady-state body
// of the multilevel V-cycle.
func (f *refineFixture) refine() {
	f.c.InterpolateInto(f.x, f.coarseX)
	linalg.ProjectOutOnes(f.x)
	linalg.Normalize(f.x)
	jacobiSmooth(f.ws, f.g, f.op, f.x, 3)
	rqiRefine(context.Background(), f.ws, f.op, f.x, RQIOptions{MaxIter: 2}, f.shifted)
}

// The V-cycle refinement must run with zero steady-state allocations once
// the workspace arenas are warm: interpolation, smoothing and RQI
// (including the MINRES inner solves) all draw from the workspace.
func TestRefineSteadyStateAllocs(t *testing.T) {
	// Below laplacian's parallel threshold so Apply spawns no goroutines.
	f := newRefineFixture(40)
	f.refine() // warm the arenas
	if allocs := testing.AllocsPerRun(20, f.refine); allocs != 0 {
		t.Fatalf("refine steady state allocates %.0f allocs/op, want 0", allocs)
	}
}

// BenchmarkMultilevelRefineWS is the CI-gated benchmark behind the
// steady-state guard: cmd/benchjson enforces 0 allocs/op on it.
func BenchmarkMultilevelRefineWS(b *testing.B) {
	f := newRefineFixture(40)
	f.refine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.refine()
	}
}

// Hierarchy construction through ContractWS must also be allocation-free on
// warm arenas (the MIS rng and the Contraction struct are the only heap
// allocations, both O(1)).
func TestContractWSWarmAllocs(t *testing.T) {
	g := graph.Grid(30, 30)
	ws := scratch.New()
	mark := ws.Mark()
	run := func() {
		ws.Release(mark)
		ContractWS(ws, g, 7)
	}
	run()
	// The rand.Rand and the returned *Contraction are per-call heap values;
	// everything per-level (CSR, domains, centers, queues) is arena-backed.
	const overhead = 8
	if allocs := testing.AllocsPerRun(20, run); allocs > overhead {
		t.Fatalf("ContractWS allocates %.0f allocs/op on warm arenas (budget %d)", allocs, overhead)
	}
}
