package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/client"
	"repro/internal/solver"
)

// workload is one traffic mix. All load comes from this process through
// closed loops: each client sends its next request only after the reply
// to the previous one has arrived.
type workload struct {
	name    string
	why     string
	clients int
	cycle   int  // requests per pass over the working set
	store   bool // the daemon gets an fs store
	// algorithm is sent with every request; "" leaves the daemon's
	// default, AUTO.
	algorithm string
	// repeats is set when a reply must repeat the first answer for its
	// matrix exactly.
	repeats bool
	// prepare makes the set-up inputs and the working set (untimed).
	prepare func(b *bench) error
	// fill is the set-up work after server start: warm-up and cache or
	// store fill (timed as set-up).
	fill func(ctx context.Context, b *bench) error
	// verify checks the last set-up's replies (untimed).
	verify func(b *bench) error
	// next makes request i of the measured phase (untimed).
	next func(b *bench, i int) (*request, error)
	// guards lists the workload's property guards over a measured phase.
	guards func(ph *phase) []guard
	// replay replays request q layer by layer in the traced run.
	replay func(r *replayer, q *request, root int) error
}

// request is one measured request and its reply.
type request struct {
	i     int    // position in the measured phase, -1 outside it
	in    *Input // single-matrix requests
	idx   int    // index into the working set, or -1
	doc   *Doc   // batch documents
	order *client.OrderResult
	batch *client.BatchResult
}

// guard is one property a workload must show in its measured phase, so a
// run cannot pass as a different workload.
type guard struct {
	name      string
	got, want float64
}

var workloads = []*workload{
	{
		name:      "cold-spectral",
		why:       "content-new SPECTRAL requests on the 18 stand-ins: the solver layers do the work, 7 below and 11 above the Lanczos/multilevel crossover",
		clients:   1,
		cycle:     18,
		algorithm: "SPECTRAL",
		prepare: func(b *bench) error {
			// One relabelling of every stand-in warms every code path and
			// problem size; the measured requests use other relabellings.
			return b.makeInputs(&b.warmup, b.gen.Bases(), b.gen.Next)
		},
		fill:   func(ctx context.Context, b *bench) error { return b.postAll(ctx, b.warmup) },
		verify: func(b *bench) error { return b.verifySet(b.warmup, false) },
		next: func(b *bench, i int) (*request, error) {
			in, err := b.gen.Next(i)
			return &request{i: i, in: in, idx: -1}, err
		},
		replay: (*replayer).cold,
		guards: func(ph *phase) []guard {
			d := ph.after.sub(ph.before)
			return []guard{
				{"cache_hit_frac", frac(d.cacheHits, d.cacheMisses), 0},
				{"eigensolves_per_order", float64(ph.eigen) / float64(ph.orders), 1},
			}
		},
	},
	{
		name:      "warm-repeat",
		why:       "8 large stand-ins re-posted by 2 clients, all cached: HTTP read, MM parse, fingerprint, cache lookup, envelope scoring and JSON encode, no eigensolve",
		clients:   2,
		cycle:     warmSet,
		algorithm: "SPECTRAL",
		repeats:   true,
		prepare:   func(b *bench) error { return b.makeInputs(&b.working, warmSet, b.gen.Next) },
		fill:      func(ctx context.Context, b *bench) error { return b.postAll(ctx, b.working) },
		verify:    func(b *bench) error { return b.verifySet(b.working, true) },
		next: func(b *bench, i int) (*request, error) {
			k := i % len(b.working)
			return &request{i: i, in: b.working[k], idx: k}, nil
		},
		replay: (*replayer).warm,
		guards: func(ph *phase) []guard {
			d := ph.after.sub(ph.before)
			return []guard{
				{"cache_hit_frac", frac(d.cacheHits, d.cacheMisses), 1},
				{"eigensolves_per_order", float64(ph.eigen) / float64(ph.orders), 0},
			}
		},
	},
	{
		name:    "auto-churn",
		why:     "AUTO on 17 unions of 3 stand-ins cycled past the 8-graph cache, eigensolves from an fs store: components, subgraphs, portfolio, scoring, store reads",
		clients: 2,
		cycle:   autoSet,
		store:   true,
		prepare: func(b *bench) error { return b.makeInputs(&b.working, autoSet, b.gen.Union) },
		fill:    func(ctx context.Context, b *bench) error { return b.postAll(ctx, b.working) },
		verify:  func(b *bench) error { return b.verifySet(b.working, true) },
		next: func(b *bench, i int) (*request, error) {
			k := i % len(b.working)
			return &request{i: i, in: b.working[k], idx: k}, nil
		},
		replay: (*replayer).auto,
		guards: func(ph *phase) []guard {
			d := ph.after.sub(ph.before)
			return []guard{
				{"cache_hit_frac", frac(d.cacheHits, d.cacheMisses), 0},
				{"store_hit_frac", frac(d.storeHits, d.storeMisses), 1},
				{"eigensolves_per_order", float64(ph.eigen) / float64(ph.orders), 0},
			}
		},
	},
	{
		name:      "batch-small",
		why:       "SPECTRAL batch documents of 48 content-new small matrices, all below the crossover: batch path and direct Lanczos, no multilevel",
		clients:   1,
		cycle:     1,
		algorithm: "SPECTRAL",
		prepare: func(b *bench) error {
			d, err := b.gen.Doc()
			b.doc = d
			return err
		},
		fill: func(ctx context.Context, b *bench) error {
			r := &request{i: -1, doc: b.doc, idx: -1}
			if err := b.send(ctx, r); err != nil {
				return fmt.Errorf("warm-up batch: %w", err)
			}
			b.fillReplies = []*request{r}
			return nil
		},
		verify: func(b *bench) error {
			if res := b.check(b.fillReplies[0], nil); res.failed > 0 {
				return fmt.Errorf("warm-up batch: %d of %d items failed", res.failed, res.orders)
			}
			return nil
		},
		next: func(b *bench, i int) (*request, error) {
			d, err := b.gen.Doc()
			return &request{i: i, doc: d, idx: -1}, err
		},
		replay: (*replayer).batch,
		guards: func(ph *phase) []guard {
			n := 0
			for _, r := range ph.results {
				n += r.lanczos
			}
			return []guard{{"lanczos_frac", float64(n) / float64(ph.orders), 1}}
		},
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// makeInputs fills *dst with count inputs from make.
func (b *bench) makeInputs(dst *[]*Input, count int, make func(int) (*Input, error)) error {
	*dst = (*dst)[:0]
	for i := 0; i < count; i++ {
		in, err := make(i)
		if err != nil {
			return err
		}
		*dst = append(*dst, in)
	}
	return nil
}

// postAll posts every input once and keeps the replies for verify.
func (b *bench) postAll(ctx context.Context, ins []*Input) error {
	b.fillReplies = b.fillReplies[:0]
	for _, in := range ins {
		r := &request{i: -1, in: in, idx: -1}
		if err := b.send(ctx, r); err != nil {
			return fmt.Errorf("set-up request %s: %w", in.Name, err)
		}
		b.fillReplies = append(b.fillReplies, r)
	}
	return nil
}

// verifySet checks the set-up replies to ins. With keep, they become the
// first answers later replies must repeat, and their quality ratios the
// run's esize_vs_rcm.
func (b *bench) verifySet(ins []*Input, keep bool) error {
	b.first = b.first[:0]
	for i, r := range b.fillReplies {
		in := ins[i]
		if err := checkOrdering(in.Graph, r.order.Perm, r.order.Envelope.Esize); err != nil {
			return fmt.Errorf("set-up reply for %s: %w", in.Name, err)
		}
		if keep {
			b.first = append(b.first, answer{perm: r.order.Perm, esize: r.order.Envelope.Esize})
			b.quality = append(b.quality, rcmRatio(in.Graph, r.order.Envelope.Esize))

		}
	}
	return nil
}

// send posts one request and decodes its reply into r.
func (b *bench) send(ctx context.Context, r *request) error {
	if r.doc != nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/v1/order/batch", bytes.NewReader(r.doc.Body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := b.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("batch: HTTP %d", resp.StatusCode)
		}
		r.batch = &client.BatchResult{}
		return json.NewDecoder(resp.Body).Decode(r.batch)
	}
	var err error
	r.order, err = b.cl.OrderMatrixMarket(ctx, r.in.Body, client.OrderRequest{Algorithm: b.w.algorithm})
	return err
}

// check verifies one measured reply. Every failed request, item or check
// counts as one failed ordering.
func (b *bench) check(r *request, sendErr error) result {
	if r.doc != nil {
		res := result{orders: len(r.doc.Items)}
		if sendErr != nil || len(r.batch.Results) != len(r.doc.Items) {
			res.failed = res.orders
			return res
		}
		for k, item := range r.batch.Results {
			in := r.doc.Items[k]
			if item == nil || checkOrdering(in.Graph, item.Perm, item.Envelope.Esize) != nil {
				res.failed++
				continue
			}
			if item.Solve != nil {
				res.solves = append(res.solves, *item.Solve)
				if item.Solve.Scheme == solver.SchemeLanczos {
					res.lanczos++
				}
			}
			if r.i >= 0 && r.i < minCycles*b.w.cycle {
				res.ratios = append(res.ratios, rcmRatio(in.Graph, item.Envelope.Esize))
			}
		}
		return res
	}
	res := result{orders: 1}
	err := sendErr
	if err == nil {
		p, e := r.order.Perm, r.order.Envelope.Esize
		if r.idx < 0 {
			err = checkOrdering(r.in.Graph, p, e)
		} else if err = sameAnswer(&b.first[r.idx], p, e); err != nil && !b.w.repeats {
			// A reply that need not repeat the first answer is checked
			// afresh; an identical one inherits that answer's check.
			err = checkOrdering(r.in.Graph, p, e)
		}
	}
	if err != nil {
		res.failed = 1
		return res
	}
	if r.order.Solve != nil {
		res.solves = append(res.solves, *r.order.Solve)
	}
	if r.idx < 0 && r.i >= 0 && r.i < minCycles*b.w.cycle {
		res.ratios = append(res.ratios, rcmRatio(r.in.Graph, r.order.Envelope.Esize))
	}
	return res
}
