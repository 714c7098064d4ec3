package main

import (
	"fmt"
	"math"

	envred "repro"
	"repro/internal/graph"
)

// esize is the benchmark's own envelope size of g under p (p[i] = the
// vertex numbered i): the sum over rows of the distance from the diagonal
// to the leftmost nonzero. It is written independently of the envelope
// package so a defect there cannot hide in the check.
func esize(g *graph.Graph, p []int32) int64 {
	pos := make([]int32, len(p))
	for i, v := range p {
		pos[v] = int32(i)
	}
	var total int64
	for i, v := range p {
		first := int32(i)
		for _, w := range g.Neighbors(int(v)) {
			first = min(first, pos[w])
		}
		total += int64(int32(i) - first)
	}
	return total
}

// checkPerm reports whether p is a permutation of 0..n-1.
func checkPerm(p []int32, n int) error {
	if len(p) != n {
		return fmt.Errorf("permutation has length %d, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for i, v := range p {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("permutation entry %d = %d is out of range or repeated", i, v)
		}
		seen[v] = true
	}
	return nil
}

// checkOrdering verifies one ordering reply against the matrix it answers:
// a valid permutation of length n whose recomputed envelope size equals
// the reported one.
func checkOrdering(g *graph.Graph, p []int32, reported int64) error {
	if err := checkPerm(p, g.N()); err != nil {
		return err
	}
	if got := esize(g, p); got != reported {
		return fmt.Errorf("reported esize %d, recomputed %d", reported, got)
	}
	return nil
}

// sameAnswer checks a repeated reply against the verified first answer
// for the same matrix: the permutation must be identical.
func sameAnswer(first *answer, p []int32, reported int64) error {
	if len(p) != len(first.perm) {
		return fmt.Errorf("permutation has length %d, first answer %d", len(p), len(first.perm))
	}
	for i := range p {
		if p[i] != first.perm[i] {
			return fmt.Errorf("permutation differs from the first answer at %d", i)
		}
	}
	if reported != first.esize {
		return fmt.Errorf("reported esize %d, first answer %d", reported, first.esize)
	}
	return nil
}

// answer is a verified ordering reply.
type answer struct {
	perm  []int32
	esize int64
}

// rcmRatio is the reply's envelope size over that of envred.RCM on the
// same matrix, the paper's quality measure.
func rcmRatio(g *graph.Graph, reported int64) float64 {
	return float64(reported) / float64(esize(g, envred.RCM(g)))
}

// geomean returns the geometric mean of xs (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
