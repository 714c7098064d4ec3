package perm

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	p := Identity(5)
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	for i, v := range p {
		if int(v) != i {
			t.Fatalf("Identity[%d] = %d", i, v)
		}
	}
	if err := Identity(0).Check(); err != nil {
		t.Fatalf("empty identity: %v", err)
	}
}

func TestRandomIsValidAndDeterministic(t *testing.T) {
	a := Random(100, 42)
	b := Random(100, 42)
	c := Random(100, 43)
	if err := a.Check(); err != nil {
		t.Fatalf("random perm: %v", err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed gave different permutations")
	}
	if a.Equal(c) {
		t.Fatal("different seeds gave identical permutations (very unlikely)")
	}
}

func TestValidRejects(t *testing.T) {
	cases := []Perm{
		{0, 0},          // duplicate
		{1, 2},          // out of range
		{-1, 0},         // negative
		{0, 2, 1, 3, 3}, // duplicate later
	}
	for _, p := range cases {
		if p.Check() == nil {
			t.Errorf("Check(%v) = nil", p)
		}
	}
	if err := (Perm{2, 0, 1}).Check(); err != nil {
		t.Errorf("valid perm rejected: %v", err)
	}
}

func TestInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%50) + 1
		if n < 0 {
			n = -n + 1
		}
		p := Random(n, seed)
		inv := p.Inverse()
		// p ∘ inv = inv ∘ p = identity.
		for k := range p {
			if p[inv[k]] != int32(k) || inv[p[k]] != int32(k) {
				return false
			}
		}
		return len(inv) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReverse(t *testing.T) {
	p := Perm{3, 1, 0, 2}
	r := p.Reverse()
	want := Perm{2, 0, 1, 3}
	if !r.Equal(want) {
		t.Fatalf("Reverse = %v, want %v", r, want)
	}
	if !p.Reverse().Reverse().Equal(p) {
		t.Fatal("double reverse is not identity")
	}
}

func TestReverseEnvelopeInvariant(t *testing.T) {
	// Reversal preserves validity for random permutations.
	for seed := int64(0); seed < 20; seed++ {
		p := Random(30, seed)
		if err := p.Reverse().Check(); err != nil {
			t.Fatalf("seed %d: reversed perm: %v", seed, err)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	p := Random(10, 1)
	q := p.Clone()
	q[0], q[1] = q[1], q[0]
	if reflect.DeepEqual(p, q) {
		t.Fatal("clone aliases original")
	}
}

func TestEqualLengthMismatch(t *testing.T) {
	if Identity(3).Equal(Identity(4)) {
		t.Fatal("different lengths reported equal")
	}
}
