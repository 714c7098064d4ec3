package main

import (
	"slices"
	"testing"

	"repro/client"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/solver"
)

// reply answers g with RCM, as the daemon would report it.
func reply(g *graph.Graph) *client.OrderResult {
	p := order.RCM(g)
	return &client.OrderResult{N: g.N(), Perm: p, Envelope: client.Envelope{Esize: esize(g, p)},
		Solve: &solver.Stats{Scheme: solver.SchemeLanczos}}
}

func TestEsizeMatchesDefinition(t *testing.T) {
	// Path 0-1-2 numbered 1,0,2: row 1 (vertex 0) reaches back 1 to vertex
	// 1, row 2 (vertex 2) reaches back 2 to it.
	if got := esize(graph.Path(3), []int32{1, 0, 2}); got != 3 {
		t.Fatalf("esize = %d, want 3", got)
	}
	g := graph.Grid(9, 7)
	for seed := int64(1); seed <= 5; seed++ {
		p := perm.Random(g.N(), seed)
		if got, want := esize(g, p), envelope.Esize(g, p); got != want {
			t.Fatalf("seed %d: esize = %d, envelope.Esize = %d", seed, got, want)
		}
	}
}

func TestTamperedRepliesCountAsFailed(t *testing.T) {
	gen, err := NewGenerator("cold-spectral", 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Next(0)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: workloads[0]}
	good := reply(in.Graph)
	if res := b.check(&request{i: 100, in: in, idx: -1, order: good}, nil); res.failed != 0 {
		t.Fatalf("a correct reply failed its check")
	}

	tamper := map[string]func(r *client.OrderResult){
		"esize off by one":  func(r *client.OrderResult) { r.Envelope.Esize++ },
		"repeated vertex":   func(r *client.OrderResult) { r.Perm[1] = r.Perm[0] },
		"short permutation": func(r *client.OrderResult) { r.Perm = r.Perm[1:] },
		"vertex out of range": func(r *client.OrderResult) {
			r.Perm[0] = int32(len(r.Perm))
		},
	}
	for name, f := range tamper {
		r := reply(in.Graph)
		f(r)
		if res := b.check(&request{i: 100, in: in, idx: -1, order: r}, nil); res.failed != 1 || res.orders != 1 {
			t.Errorf("%s: check counted %d of %d failed, want 1 of 1", name, res.failed, res.orders)
		}
	}

	// warm-repeat replies must repeat the first answer exactly, even when a
	// different permutation is valid and its esize reported correctly.
	w := &bench{w: workloads[1], first: []answer{{perm: good.Perm, esize: good.Envelope.Esize}}}
	if res := w.check(&request{in: in, idx: 0, order: reply(in.Graph)}, nil); res.failed != 0 {
		t.Fatalf("a repeated first answer failed its check")
	}
	other := reply(in.Graph)
	other.Perm = slices.Clone(other.Perm)
	slices.Reverse(other.Perm)
	other.Envelope.Esize = esize(in.Graph, other.Perm)
	if res := w.check(&request{in: in, idx: 0, order: other}, nil); res.failed != 1 {
		t.Errorf("a valid reply that differs from the first answer passed on warm-repeat")
	}
}

func TestTamperedBatchItemCountsAsFailed(t *testing.T) {
	gen, err := NewGenerator("batch-small", 1)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := gen.Doc()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: workloads[3]}
	batch := &client.BatchResult{}
	for _, in := range doc.Items {
		batch.Results = append(batch.Results, reply(in.Graph))
	}
	r := &request{i: 0, doc: doc, idx: -1, batch: batch}
	if res := b.check(r, nil); res.failed != 0 || res.lanczos != len(doc.Items) {
		t.Fatalf("correct batch: %d failed, %d lanczos of %d", res.failed, res.lanczos, len(doc.Items))
	}
	batch.Results[5].Envelope.Esize--
	batch.Results[9] = nil
	if res := b.check(r, nil); res.failed != 2 || res.orders != len(doc.Items) {
		t.Errorf("tampered batch: %d of %d failed, want 2", res.failed, res.orders)
	}
}
