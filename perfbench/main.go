// Command perfbench is the repository's end-to-end benchmark. It drives
// one named workload through an in-process envorderd daemon
// (service.New(...).Handler() on a loopback listener), checks every reply,
// and prints every metric by name and unit, ending with one JSON result
// line:
//
//	perfbench --workload cold-spectral --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures the same
// workload's daemon counters, then replays its generated inputs through
// each layer's public functions with spans around the calls, and prints
// the per-layer metrics. --list prints every metric and workload.
//
// perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// setupReps is how many times a run sets its daemon up; setup_s is the
// median.
const setupReps = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see --list)")
		seed    = flag.Int64("seed", 1, "input and ordering seed")
		seconds = flag.Float64("seconds", 15, "measured time of the closed loop")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		listing = flag.Bool("list", false, "print every metric and workload, then exit")
	)
	flag.Parse()
	if *listing {
		list(os.Stdout)
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	w, err := lookup(name)
	if err != nil {
		return err
	}
	ctx := context.Background()
	gen, err := NewGenerator(w.name, seed)
	if err != nil {
		return err
	}
	dir, err := runDir()
	if err != nil {
		return fmt.Errorf("making run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, seed: seed, traced: traced, gen: gen, dir: dir}
	defer b.stop()
	if err := w.prepare(b); err != nil {
		return err
	}
	reps := setupReps
	if traced {
		reps = 1
	}
	setups := make([]float64, reps)
	for rep := range setups {
		if rep > 0 {
			if err := b.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if err := b.start(rep); err != nil {
			return err
		}
		if err := w.fill(ctx, b); err != nil {
			return err
		}
		setups[rep] = time.Since(t0).Seconds()
	}
	if err := w.verify(b); err != nil {
		return err
	}
	runtime.GC()
	ph, err := b.loop(ctx, seconds)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d: %d requests, %d orderings, %d failed, %.3f s busy\n",
		w.name, seed, len(ph.results), ph.orders, ph.failed, ph.busy.Seconds())
	correct := ph.failed == 0
	for _, g := range w.guards(ph) {
		ok := math.Abs(g.got-g.want) < 1e-9
		correct = correct && ok
		fmt.Printf("guard %-22s %8.4f want %g ok=%v\n", g.name, g.got, g.want, ok)
	}
	fmt.Printf("failed_frac %.6g (%d of %d orderings)\n", float64(ph.failed)/float64(ph.orders), ph.failed, ph.orders)

	set, v := endToEnd, values(nil)
	if traced {
		set = perLayer
		if v, err = b.replay(ctx, ph); err != nil {
			return err
		}
	} else {
		v = b.endToEnd(ph, setups)
	}
	if err := report(os.Stdout, set, v, correct, ph.orders, ph.failed); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("%s: replies or guards failed", w.name)
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (b *bench) endToEnd(ph *phase, setups []float64) values {
	lat := make([]float64, len(ph.results))
	ratios := append([]float64(nil), b.quality...)
	for i, r := range ph.results {
		lat[i] = float64(r.latency) / float64(time.Millisecond)
		ratios = append(ratios, r.ratios...)
	}
	// Rates and the heap peak are medians over the passes through the
	// working set, which keeps one slow stretch of a noisy host, or one
	// late collection, from moving a whole run.
	per := float64(ph.orders) / float64(len(ph.cycles))
	rate := make([]float64, len(ph.cycles))
	cpu := make([]float64, len(ph.cycles))
	alloc := make([]float64, len(ph.cycles))
	for i, c := range ph.cycles {
		rate[i] = per / c.busy.Seconds()
		cpu[i] = float64(c.cpu) / float64(time.Millisecond) / per
		alloc[i] = float64(c.alloc) / 1024 / per
	}
	peak := make([]float64, len(ph.peaks))
	for i, p := range ph.peaks {
		peak[i] = float64(p) / (1 << 20)
	}
	fmt.Printf("latency samples %d; %d passes; esize_vs_rcm over %d matrices; setups %.4g s\n",
		len(lat), len(ph.cycles), len(ratios), setups)
	return values{
		"setup_s":            quantile(setups, 0.5),
		"latency_p50_ms":     quantile(lat, 0.5),
		"latency_p90_ms":     quantile(lat, 0.9),
		"orders_per_s":       quantile(rate, 0.5),
		"esize_vs_rcm":       geomean(ratios),
		"alloc_kb_per_order": quantile(alloc, 0.5),
		"heap_peak_mb":       quantile(peak, 0.5),
		"cpu_ms_per_order":   quantile(cpu, 0.5),
	}
}
