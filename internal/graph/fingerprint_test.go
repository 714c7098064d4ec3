package graph

import (
	"sync"
	"testing"

	"repro/internal/scratch"
)

func TestFingerprintIdentity(t *testing.T) {
	g1 := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	// Same edges added in a different order and direction: the builder
	// canonicalizes, so the content — and the fingerprint — must match.
	g2 := FromEdges(5, [][2]int{{4, 3}, {2, 1}, {3, 2}, {1, 0}})
	if FingerprintOf(g1) != FingerprintOf(g2) {
		t.Fatal("structurally identical graphs have different fingerprints")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	base := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	cases := map[string]*Graph{
		"extra edge":    FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}}),
		"missing edge":  FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		"more vertices": FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		"relabeled":     FromEdges(5, [][2]int{{0, 2}, {2, 1}, {1, 3}, {3, 4}}),
	}
	fp := FingerprintOf(base)
	for name, g := range cases {
		if FingerprintOf(g) == fp {
			t.Errorf("%s: fingerprint collides with base graph", name)
		}
	}
}

func TestFingerprintEmptyAndIsolated(t *testing.T) {
	empty := FromEdges(0, nil)
	isolated := FromEdges(3, nil)
	if FingerprintOf(empty) == FingerprintOf(isolated) {
		t.Fatal("0-vertex and 3-vertex edgeless graphs share a fingerprint")
	}
}

func TestFingerprintStringHex(t *testing.T) {
	s := FingerprintOf(FromEdges(2, [][2]int{{0, 1}})).String()
	if len(s) != 64 {
		t.Fatalf("String() = %q, want 64 hex chars", s)
	}
	for _, c := range s {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("String() contains non-hex char %q", c)
		}
	}
}

// The memoized fingerprint equals a fresh hash of the CSR arrays for every
// way a Graph comes into being, on the first call and on the memo hit.
func TestFingerprintMemoMatchesHash(t *testing.T) {
	b := NewBuilder(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}} {
		b.AddEdge(e[0], e[1])
	}
	built := b.Build()
	csr, err := FromCSR(append([]int32(nil), built.Xadj...), append([]int32(nil), built.Adj...))
	if err != nil {
		t.Fatal(err)
	}
	var sub Graph
	Grid(7, 5).SubgraphInto(scratch.New(), &sub, []int{0, 1, 2, 7, 8, 9, 14})
	cases := map[string]*Graph{
		"Builder":      built,
		"FromEdges":    FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		"FromCSR":      csr,
		"SubgraphInto": &sub,
	}
	for name, g := range cases {
		want := hashCSR(g)
		if got := FingerprintOf(g); got != want {
			t.Errorf("%s: first FingerprintOf differs from a fresh hash", name)
		}
		if got := FingerprintOf(g); got != want {
			t.Errorf("%s: memoized FingerprintOf differs from a fresh hash", name)
		}
	}
}

// Refilling a reused dst through SubgraphInto (as the RCM and spectral
// per-component loops do) must drop the memo of its previous content.
func TestSubgraphIntoRefillResetsFingerprint(t *testing.T) {
	g := Grid(6, 6)
	ws := scratch.New()
	var dst Graph
	g.SubgraphInto(ws, &dst, []int{0, 1, 2, 3})
	first := FingerprintOf(&dst)
	g.SubgraphInto(ws, &dst, []int{0, 1, 6, 7})
	if got, want := FingerprintOf(&dst), hashCSR(&dst); got != want {
		t.Fatal("refilled dst reports a stale fingerprint")
	}
	if FingerprintOf(&dst) == first {
		t.Fatal("a path and a square share a fingerprint")
	}
}

// Concurrent first calls on one graph agree (and are race-free under
// -race).
func TestFingerprintConcurrent(t *testing.T) {
	g := Grid(40, 30)
	want := hashCSR(g)
	var wg sync.WaitGroup
	got := make([]Fingerprint, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = FingerprintOf(g)
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("goroutine %d got a different fingerprint", i)
		}
	}
}
