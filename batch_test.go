package envred_test

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	envred "repro"
	"repro/internal/graph"
)

// batchSuite builds a mixed bag of graphs exercising every OrderBatch path:
// fast-path-eligible connected graphs, a disconnected union, tiny graphs
// below the artifact threshold (n < 3), and a path/complete pathology pair.
func batchSuite() []*envred.Graph {
	var gs []*envred.Graph
	gs = append(gs, grid(9, 11), grid(16, 16), path(150), complete(23))
	// Disconnected: two grids in one graph.
	b := graph.NewBuilder(5*5 + 4*4)
	for off, side := range map[int]int{0: 5, 25: 4} {
		for r := 0; r < side; r++ {
			for c := 0; c < side; c++ {
				v := off + r*side + c
				if c+1 < side {
					b.AddEdge(v, v+1)
				}
				if r+1 < side {
					b.AddEdge(v, v+side)
				}
			}
		}
	}
	gs = append(gs, b.Build())
	// Below the artifact threshold.
	b2 := graph.NewBuilder(2)
	b2.AddEdge(0, 1)
	gs = append(gs, b2.Build())
	gs = append(gs, grid(31, 7))
	return gs
}

func grid(rows, cols int) *envred.Graph {
	b := graph.NewBuilder(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c+1 < cols {
				b.AddEdge(v, v+1)
			}
			if r+1 < rows {
				b.AddEdge(v, v+cols)
			}
		}
	}
	return b.Build()
}

func path(n int) *envred.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func complete(n int) *envred.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

// sameResult reports whether two Results are byte-identical in every
// deterministic field (Elapsed is wall-clock and excluded).
func sameResult(t *testing.T, tag string, got, want envred.Result) {
	t.Helper()
	if len(got.Perm) != len(want.Perm) {
		t.Fatalf("%s: perm length %d, want %d", tag, len(got.Perm), len(want.Perm))
	}
	for i := range want.Perm {
		if got.Perm[i] != want.Perm[i] {
			t.Fatalf("%s: perm[%d] = %d, want %d", tag, i, got.Perm[i], want.Perm[i])
		}
	}
	if got.Algorithm != want.Algorithm {
		t.Fatalf("%s: algorithm %q, want %q", tag, got.Algorithm, want.Algorithm)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", tag, got.Stats, want.Stats)
	}
	if (got.Solve == nil) != (want.Solve == nil) {
		t.Fatalf("%s: solve presence %v, want %v", tag, got.Solve != nil, want.Solve != nil)
	}
	if got.Solve != nil && *got.Solve != *want.Solve {
		t.Fatalf("%s: solve %+v, want %+v", tag, *got.Solve, *want.Solve)
	}
	if (got.Info == nil) != (want.Info == nil) {
		t.Fatalf("%s: info presence %v, want %v", tag, got.Info != nil, want.Info != nil)
	}
	if got.Info != nil && *got.Info != *want.Info {
		t.Fatalf("%s: info %+v, want %+v", tag, *got.Info, *want.Info)
	}
}

// TestOrderBatchMatchesOrder pins the batch API's core contract: every
// item's Result is byte-identical to a Session.Order call with the same
// options on the same graph — across algorithms (fast path and generic),
// worker counts, cold and warm artifact caches, and recycled result slots.
func TestOrderBatchMatchesOrder(t *testing.T) {
	graphs := batchSuite()
	for _, alg := range []string{"SPECTRAL", "RCM", "SPECTRAL+SLOAN", "GPS"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", alg, workers), func(t *testing.T) {
				ref := envred.NewSession(envred.SessionOptions{Seed: 7, CacheGraphs: len(graphs)})
				want := make([]envred.Result, len(graphs))
				for i, g := range graphs {
					r, err := ref.Order(context.Background(), g, alg)
					if err != nil {
						t.Fatalf("Order(%d): %v", i, err)
					}
					want[i] = r
				}
				sess := envred.NewSession(envred.SessionOptions{Seed: 7, CacheGraphs: len(graphs)})
				var results []envred.BatchResult
				// Two rounds: the first runs cold, the second recycles the
				// result slots against warm artifacts — both must match.
				for round := 0; round < 2; round++ {
					var err error
					results, err = sess.OrderBatch(context.Background(), graphs, envred.BatchOptions{
						Algorithm: alg,
						Workers:   workers,
						Results:   results,
					})
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					for i := range results {
						if results[i].Err != nil {
							t.Fatalf("round %d item %d: %v", round, i, results[i].Err)
						}
						sameResult(t, fmt.Sprintf("round %d item %d", round, i), results[i].Result, want[i])
					}
				}
			})
		}
	}
}

// TestOrderBatchSeedAndSpectralDefaults pins that batch-level Seed and
// Spectral options reach every item exactly as Session.Do applies them.
func TestOrderBatchSeedAndSpectralDefaults(t *testing.T) {
	g := grid(13, 17)
	sess := envred.NewSession(envred.SessionOptions{Seed: 3})
	want, err := sess.Do(context.Background(), g, "SPECTRAL",
		envred.OrderRequest{Seed: 41, Spectral: envred.SpectralOptions{Method: envred.MethodLanczos}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.OrderBatch(context.Background(), []*envred.Graph{g}, envred.BatchOptions{
		Algorithm: "spectral", // case-insensitive like Order
		Seed:      41,
		Spectral:  envred.SpectralOptions{Method: envred.MethodLanczos},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	sameResult(t, "seeded item", res[0].Result, want)
}

// TestOrderBatchItemErrors pins per-item error independence: a failing item
// reports its own error and its neighbors complete normally.
func TestOrderBatchItemErrors(t *testing.T) {
	sess := envred.NewSession(envred.SessionOptions{Seed: 5})
	graphs := []*envred.Graph{grid(6, 6), grid(4, 4), grid(5, 5)}
	// WEIGHTED needs a weight function; OrderBatch has no way to pass one,
	// so every item fails with the algorithm's own error — independently.
	res, err := sess.OrderBatch(context.Background(), graphs, envred.BatchOptions{Algorithm: "WEIGHTED"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err == nil {
			t.Fatalf("item %d: expected weight-function error", i)
		}
	}
	// Unknown algorithm is the one global failure.
	if _, err := sess.OrderBatch(context.Background(), graphs, envred.BatchOptions{Algorithm: "NOPE"}); err == nil {
		t.Fatal("expected unknown-algorithm error")
	}
}

// TestOrderBatchSharedSessionRace drives concurrent OrderBatch and Order
// calls through one Session — the serving shape — under the race detector.
func TestOrderBatchSharedSessionRace(t *testing.T) {
	sess := envred.NewSession(envred.SessionOptions{Seed: 11, CacheGraphs: 16})
	graphs := batchSuite()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				res, err := sess.OrderBatch(context.Background(), graphs, envred.BatchOptions{Algorithm: "SPECTRAL", Workers: 2})
				if err != nil {
					t.Error(err)
					return
				}
				for i := range res {
					if res[i].Err != nil {
						t.Errorf("item %d: %v", i, res[i].Err)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sess.Order(context.Background(), graphs[0], "SPECTRAL"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestOrderBatchSteadyStateAllocs pins the batch fast path's headline
// property: once the session's artifacts are warm and the result slots are
// recycled, a whole batch of cached SPECTRAL orderings allocates nothing.
func TestOrderBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds: sync.Pool.Put drops one item in four on purpose, so pool refills land in the count; the plain test run and the OrderBatch benchmark gate 0 allocs")
	}
	graphs := []*envred.Graph{grid(9, 11), grid(16, 16), path(150), grid(31, 7)}
	sess := envred.NewSession(envred.SessionOptions{Seed: 13, CacheGraphs: len(graphs)})
	results, err := sess.OrderBatch(context.Background(), graphs, envred.BatchOptions{Algorithm: "SPECTRAL", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		results, err = sess.OrderBatch(ctx, graphs, envred.BatchOptions{
			Algorithm: "SPECTRAL",
			Workers:   1,
			Results:   results,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			if results[i].Err != nil {
				t.Fatal(results[i].Err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state OrderBatch allocated %v times per batch, want 0", allocs)
	}
}

// TestWarmOrderAllocs pins the warm singleton cost of the shared
// Session.do path: a cached SPECTRAL Order allocates only its result slot
// and the caller's copy of the permutation. The collector is off while it
// measures, so a GC emptying the workspace pool cannot add refills.
func TestWarmOrderAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := grid(16, 16)
	sess := envred.NewSession(envred.SessionOptions{Seed: 13})
	ctx := context.Background()
	if _, err := sess.Order(ctx, g, "SPECTRAL"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sess.Order(ctx, g, "SPECTRAL"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm Session.Order(SPECTRAL) allocated %v times, want at most 2", allocs)
	}
}
