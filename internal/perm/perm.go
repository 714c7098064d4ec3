// Package perm provides the permutation utilities shared by all ordering
// algorithms in this repository.
//
// Convention: an ordering is represented "new→old": order[k] = v means that
// vertex v (old label) occupies position k (0-based) in the new ordering.
// This matches the permutation-matrix view PᵀAP of the paper, where column k
// of P is the unit vector e_{order[k]}. The inverse ("old→new") maps a
// vertex to its new position and is what the envelope formulas consume.
package perm

import (
	"fmt"
	"math/rand"
)

// Perm is a permutation of {0,...,n-1} in new→old convention.
type Perm []int32

// Identity returns the identity permutation of length n.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}

// Random returns a uniformly random permutation of length n, deterministic
// for a given seed.
func Random(n int, seed int64) Perm {
	rng := rand.New(rand.NewSource(seed))
	p := Identity(n)
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Check returns a descriptive error if p is not a valid permutation.
func (p Perm) Check() error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || int(v) >= len(p) {
			return fmt.Errorf("perm: entry %d = %d out of range [0,%d)", i, v, len(p))
		}
		if seen[v] {
			return fmt.Errorf("perm: value %d repeated (second occurrence at %d)", v, i)
		}
		seen[v] = true
	}
	return nil
}

// Inverse returns the inverse permutation: Inverse()[p[k]] = k. When p is
// new→old, the inverse is old→new (vertex → position).
func (p Perm) Inverse() Perm {
	inv := make(Perm, len(p))
	for k, v := range p {
		inv[v] = int32(k)
	}
	return inv
}

// Reverse returns the reversal of p: position k gets p[n-1-k]. Reversing a
// Cuthill–McKee order yields RCM.
func (p Perm) Reverse() Perm {
	r := make(Perm, len(p))
	for i, v := range p {
		r[len(p)-1-i] = v
	}
	return r
}

// Clone returns a copy of p.
func (p Perm) Clone() Perm {
	return append(Perm(nil), p...)
}

// Equal reports whether p and q are identical.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}
