package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

// runSeconds is the measured time of one run of BENCHMARK.json's command.
const runSeconds = 15

type benchFile struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []benchWork     `json:"workloads"`
	EndToEnd   []benchE2E      `json:"end_to_end"`
	PerLayer   []benchPerLayer `json:"per_layer"`
}

type benchWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func expectedBenchFile() benchFile {
	f := benchFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWork{w.name, w.why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchE2E{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchPerLayer{m.name, m.unit, m.better})
	}
	return f
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to the tables the program
// reports from; go test -run TestBenchmarkJSON -update rewrites it.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(expectedBenchFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is out of date; run go test -run TestBenchmarkJSON -update")
	}
}

func TestMetricAndWorkloadNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			check(m.name)
			if !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
				t.Errorf("%s: unit %q or direction %q is malformed", m.name, m.unit, m.better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.name, m.bound)
		}
	}
}
