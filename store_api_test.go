package envred_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	envred "repro"
	"repro/internal/core"
)

func countStoreSolves(f func()) int {
	var n int64
	restore := core.SetEigensolveTestHook(func(int) { atomic.AddInt64(&n, 1) })
	defer restore()
	f()
	return int(atomic.LoadInt64(&n))
}

// Two Sessions — two "processes" — sharing one store: the second orders
// the same matrix content (a fresh Graph instance, so tier 1 cannot hit)
// with zero eigensolves and a byte-identical permutation.
func TestSessionStoreWarmAcrossSessions(t *testing.T) {
	st, err := envred.OpenStore("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()

	var coldPerm envred.Perm
	cold := countStoreSolves(func() {
		sess := envred.NewSession(envred.SessionOptions{Seed: 11, Store: st})
		res, err := sess.Order(ctx, envred.Grid(12, 9), envred.AlgSpectral)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != envred.SourceSolved {
			t.Errorf("cold session reported source %v, want solved", res.Source)
		}
		coldPerm = res.Perm
	})
	if cold == 0 {
		t.Fatal("cold session performed no eigensolves")
	}

	var warmPerm envred.Perm
	warm := countStoreSolves(func() {
		sess := envred.NewSession(envred.SessionOptions{Seed: 11, Store: st})
		res, err := sess.Order(ctx, envred.Grid(12, 9), envred.AlgSpectral)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != envred.SourceStore {
			t.Errorf("fresh session over a warm store reported source %v, want store", res.Source)
		}
		warmPerm = res.Perm
	})
	if warm != 0 {
		t.Errorf("warm session performed %d eigensolves, want 0", warm)
	}
	if !coldPerm.Equal(warmPerm) {
		t.Error("warm session's permutation differs from the cold one")
	}
}

// The store also serves Session.Fiedler, and a store-backed session is
// created even with tier 1 explicitly disabled.
func TestSessionStoreFiedlerAndDisabledCache(t *testing.T) {
	st, err := envred.OpenStore("fs://" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()

	run := func() ([]float64, int) {
		var x []float64
		n := countStoreSolves(func() {
			sess := envred.NewSession(envred.SessionOptions{Seed: 4, CacheGraphs: -1, Store: st})
			var err error
			x, _, _, err = sess.Fiedler(ctx, envred.Grid(10, 10))
			if err != nil {
				t.Fatal(err)
			}
		})
		return x, n
	}
	x1, n1 := run()
	if n1 == 0 {
		t.Fatal("cold Fiedler performed no eigensolves")
	}
	x2, n2 := run()
	if n2 != 0 {
		t.Errorf("warm Fiedler performed %d eigensolves, want 0", n2)
	}
	if len(x1) != len(x2) {
		t.Fatal("Fiedler vector length changed")
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("store-served Fiedler vector differs at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

// StoreKeyFor matches what the Session writes: a caller can probe the
// store out of band for exactly the entry a session run produced.
func TestStoreKeyForMatchesSessionWrites(t *testing.T) {
	st, err := envred.OpenStore("mem://")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := envred.Grid(9, 9)
	key := envred.StoreKeyFor(g, envred.SpectralOptions{Seed: 2})
	if _, err := st.Get(key); !errors.Is(err, envred.ErrStoreNotFound) {
		t.Fatalf("probe before run: err=%v, want ErrStoreNotFound", err)
	}
	sess := envred.NewSession(envred.SessionOptions{Seed: 2, Store: st})
	if _, err := sess.Order(context.Background(), g, envred.AlgSpectral); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Get(key)
	if err != nil {
		t.Fatalf("probe after run: %v", err)
	}
	if rec.N != g.N() || !rec.HasFiedler {
		t.Errorf("stored record inconsistent: N=%d HasFiedler=%v", rec.N, rec.HasFiedler)
	}
}
