package main

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/mm"
)

// inputsOf returns the bodies of the first inputs a workload sends: set-up
// inputs first, then three passes of the measured phase.
func inputsOf(t *testing.T, workload string, seed int64) []*Input {
	t.Helper()
	g, err := NewGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []*Input
	add := func(in *Input, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	switch workload {
	case "cold-spectral":
		for i := 0; i < 4*g.Bases(); i++ {
			add(g.Next(i))
		}
	case "warm-repeat":
		for i := 0; i < warmSet; i++ {
			add(g.Next(i))
		}
	case "auto-churn":
		for i := 0; i < autoSet; i++ {
			add(g.Union(i))
		}
	case "batch-small":
		for d := 0; d < 3; d++ {
			doc, err := g.Doc()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, doc.Items...)
			add(&Input{Name: "document", Body: doc.Body}, nil)
		}
	}
	return out
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := inputsOf(t, w.name, 7), inputsOf(t, w.name, 7)
		if len(a) != len(b) {
			t.Fatalf("%s: %d inputs, then %d", w.name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: input %d (%s) differs between two generators with one seed", w.name, i, a[i].Name)
			}
		}
		if c := inputsOf(t, w.name, 8); bytes.Equal(a[0].Body, c[0].Body) {
			t.Errorf("%s: seeds 7 and 8 give the same first input", w.name)
		}
	}
}

func TestInputsAreContentNew(t *testing.T) {
	for _, name := range []string{"cold-spectral", "batch-small"} {
		seen := map[graph.Fingerprint]string{}
		for _, in := range inputsOf(t, name, 3) {
			if in.Graph == nil {
				continue // a batch document's own body
			}
			fp := graph.FingerprintOf(in.Graph)
			if prev, ok := seen[fp]; ok {
				t.Fatalf("%s: %s repeats the content of %s", name, in.Name, prev)
			}
			seen[fp] = in.Name
		}
	}
}

func TestAutoUnionsHaveThreeComponents(t *testing.T) {
	for _, in := range inputsOf(t, "auto-churn", 5) {
		g, err := mm.ReadGraph(bytes.NewReader(in.Body))
		if err != nil {
			t.Fatal(err)
		}
		if c := len(graph.Components(g)); c != autoParts {
			t.Errorf("%s: %d components, want %d", in.Name, c, autoParts)
		}
	}
}

func TestBodiesEncodeTheirGraphs(t *testing.T) {
	for _, in := range inputsOf(t, "warm-repeat", 2) {
		g, err := mm.ReadGraph(bytes.NewReader(in.Body))
		if err != nil {
			t.Fatal(err)
		}
		if graph.FingerprintOf(g) != graph.FingerprintOf(in.Graph) {
			t.Errorf("%s: the body does not encode the kept graph", in.Name)
		}
	}
}
