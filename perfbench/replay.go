package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	envred "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/laplacian"
	"repro/internal/mm"
	"repro/internal/multilevel"
	"repro/internal/order"
	"repro/internal/perm"
	"repro/internal/pipeline"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// The traced run replays one pass of the workload's inputs, content-new
// where the workload's are, so the daemon takes the same path. Each
// replayed request gets a root span holding three children:
//
//	service.handler  the daemon's handler, ServeHTTP on a recorder
//	replay           the handler's steps, called layer by layer
//	detail           breakdowns of steps the replay calls as one unit
//	                 (portfolio candidates, contraction levels, matvecs)
//
// The layer calls then run a second time with the recorder off, before or
// after the traced run in alternation; the gap between the two is the
// tracing overhead.

// idHeader carries a measured request's index from client to server in the
// traced run, so server time and client latency pair up.
const idHeader = "X-Perfbench-Request"

type reqIDKey struct{}

// tagTransport adds the request index in the context to the request
// headers.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(idHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(r)
}

// timeHandler records how long h spends on each tagged request.
func (b *bench) timeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if id, err := strconv.Atoi(r.Header.Get(idHeader)); err == nil {
			b.serverTime.Store(id, time.Since(t0))
		}
	})
}

// replayer carries the state of one traced replay.
type replayer struct {
	b   *bench
	ctx context.Context
	rec *recorder
	ws  *scratch.Workspace
	req int

	// Counts accumulated over the traced passes.
	parsed       int64 // Matrix Market bytes parsed
	items        int   // batch items ordered
	matvecs      int
	matvecBytes  float64
	contractions int
	coarsenSum   float64
}

func (r *replayer) span(parent int, name string, f func()) { r.rec.do(r.req, parent, name, f) }

// matvecReps is how many Laplacian applications one matvec span times.
const matvecReps = 20

// matvec times laplacian.Auto(g).Apply.
func (r *replayer) matvec(parent int, g *graph.Graph) {
	op := laplacian.Auto(g)
	n := g.N()
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	r.span(parent, "laplacian.matvec", func() {
		for k := 0; k < matvecReps; k++ {
			op.Apply(x, y)
		}
	})
	if r.rec.on {
		r.matvecs += matvecReps
		// CSR offsets and columns (4 bytes each); degrees, x and y (8 each).
		r.matvecBytes += matvecReps * float64(4*(n+1)+4*len(g.Adj)+3*8*n)
	}
}

// contract replays multilevel.ContractWS over the levels a solve reported,
// with the seeds the multilevel solver uses.
func (r *replayer) contract(parent int, g *graph.Graph, levels int) {
	if levels < 2 {
		return
	}
	m := r.ws.Mark()
	defer r.ws.Release(m)
	r.span(parent, "multilevel.contract", func() {
		cur := g
		for l := 1; l < levels; l++ {
			c := multilevel.ContractWS(r.ws, cur, r.b.seed+int64(l))
			if r.rec.on {
				r.contractions++
				r.coarsenSum += float64(c.Coarse.N()) / float64(cur.N())
			}
			cur = c.Coarse
		}
	})
}

// parse replays the Matrix Market parse of body.
func (r *replayer) parse(parent int, body []byte) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	r.span(parent, "mm.parse", func() { g, err = mm.ReadGraph(bytes.NewReader(body)) })
	if r.rec.on {
		r.parsed += int64(len(body))
	}
	r.span(parent, "graph.fingerprint", func() { graph.FingerprintOf(g) })
	return g, err
}

func (r *replayer) encode(parent int, p perm.Perm) {
	r.span(parent, "service.encode_perm", func() { _ = json.NewEncoder(io.Discard).Encode(p) })
}

// spectral replays a SPECTRAL ordering of the connected graph g: solve,
// sort and direction choice. The solve's span is named by its scheme.
func (r *replayer) spectral(parent int, g *graph.Graph) (perm.Perm, int, error) {
	sv := core.Options{Seed: r.b.seed}.Solver(g.N())
	var (
		x      []float64
		levels int
		err    error
		p      perm.Perm
	)
	r.span(parent, "solver."+sv.Name(), func() {
		var st solver.Stats
		x, st, err = sv.Solve(r.ctx, r.ws, g)
		levels = st.Levels
	})
	if err != nil {
		return nil, 0, err
	}
	r.span(parent, "core.order_fiedler", func() { p, _, _ = core.OrderFiedler(r.ws, g, x) })
	return p, levels, nil
}

func (r *replayer) score(parent int, g *graph.Graph, p perm.Perm) {
	r.span(parent, "envelope.score", func() { envelope.ComputeInto(r.ws, g, p) })
}

// Each workload's replay of request q runs under root: the handler's
// steps below a replay span, then breakdowns of steps called as one unit
// below a detail span.

func (r *replayer) cold(q *request, root int) error {
	path := r.rec.begin(r.req, root, "replay")
	g, err := r.parse(path, q.in.Body)
	if err != nil {
		return err
	}
	p, levels, err := r.spectral(path, g)
	if err != nil {
		return err
	}
	r.score(path, g, p)
	r.encode(path, p)
	r.rec.end(path)
	detail := r.rec.begin(r.req, root, "detail")
	r.contract(detail, g, levels)
	r.matvec(detail, g)
	r.rec.end(detail)
	return nil
}

func (r *replayer) warm(q *request, root int) error {
	path := r.rec.begin(r.req, root, "replay")
	g, err := r.parse(path, q.in.Body)
	if err != nil {
		return err
	}
	p := perm.Perm(r.b.first[q.idx].perm)
	r.score(path, g, p)
	r.encode(path, p)
	r.rec.end(path)
	return nil
}

func (r *replayer) batch(q *request, root int) error {
	path := r.rec.begin(r.req, root, "replay")
	graphs := make([]*graph.Graph, len(q.doc.Items))
	for k, in := range q.doc.Items {
		g, err := r.parse(path, in.Body)
		if err != nil {
			return err
		}
		graphs[k] = g
	}
	sess := envred.NewSession(envred.SessionOptions{Seed: r.b.seed})
	var res []envred.BatchResult
	var err error
	r.span(path, "pipeline.batch", func() {
		res, err = sess.OrderBatch(r.ctx, graphs, envred.BatchOptions{Algorithm: envred.AlgSpectral})
	})
	if err != nil {
		return err
	}
	for k := range res {
		if res[k].Err != nil {
			return res[k].Err
		}
		r.encode(path, res[k].Result.Perm)
	}
	r.rec.end(path)
	if r.rec.on {
		r.items += len(graphs)
	}
	detail := r.rec.begin(r.req, root, "detail")
	for _, g := range graphs {
		p, _, err := r.spectral(detail, g)
		if err != nil {
			return err
		}
		r.score(detail, g, p)
		r.matvec(detail, g)
	}
	r.rec.end(detail)
	return nil
}

// auto replays an AUTO request: the advisory store probe and the portfolio
// pipeline on a store-backed cache, then, as detail, each component's
// extraction, store read and portfolio candidates.
func (r *replayer) auto(q *request, root int) error {
	b := r.b
	path := r.rec.begin(r.req, root, "replay")
	g, err := r.parse(path, q.in.Body)
	if err != nil {
		return err
	}
	opt := core.Options{Seed: b.seed}
	r.span(path, "store.get", func() { _, _ = b.store.Get(pipeline.StoreKeyFor(g, opt)) })
	var p perm.Perm
	r.span(path, "pipeline.auto", func() {
		cache := pipeline.NewCache(0)
		cache.SetStore(b.store)
		p, _, err = pipeline.Auto(g, pipeline.Options{Seed: b.seed, Cache: cache})
	})
	if err != nil {
		return err
	}
	r.encode(path, p)
	r.rec.end(path)

	detail := r.rec.begin(r.req, root, "detail")
	var comps [][]int
	r.span(detail, "graph.components", func() { comps = graph.Components(g) })
	for _, comp := range comps {
		sub := &graph.Graph{}
		r.span(detail, "graph.subgraph", func() { g.SubgraphInto(r.ws, sub, comp) })
		var art *envred.StoreArtifact
		r.span(detail, "store.get", func() { art, err = b.store.Get(pipeline.StoreKeyFor(sub, opt)) })
		if err != nil {
			return fmt.Errorf("store read of a component: %w", err)
		}
		var sp perm.Perm
		r.span(detail, "core.order_fiedler", func() { sp, _, _ = core.OrderFiedler(r.ws, sub, art.Fiedler) })
		cands := []perm.Perm{sp}
		for _, c := range []struct {
			name string
			f    func(*graph.Graph) perm.Perm
		}{{"order.rcm", order.RCM}, {"order.gk", order.GK}, {"order.gps", order.GPS}, {"order.sloan", order.Sloan}} {
			var o perm.Perm
			r.span(detail, c.name, func() { o = c.f(sub) })
			cands = append(cands, o)
		}
		r.span(detail, "core.sloan_refine", func() {
			if o, ok := core.SloanRefine(sub, sp); ok {
				cands = append(cands, o)
			}
		})
		for _, o := range cands {
			r.score(detail, sub, o)
		}
	}
	r.rec.end(detail)
	return nil
}

// serve runs q through the daemon's handler on a recorder, in a
// service.handler span, and checks the reply.
func (r *replayer) serve(parent int, q *request) error {
	b := r.b
	target, ctype, body := "/v1/order", "application/x-matrix-market", []byte(nil)
	if q.doc != nil {
		target, ctype, body = "/v1/order/batch", "application/json", q.doc.Body
	} else {
		body = q.in.Body
		if b.w.algorithm != "" {
			target += "?algorithm=" + b.w.algorithm
		}
	}
	req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	w := httptest.NewRecorder()
	r.span(parent, "service.handler", func() { b.srv.Handler().ServeHTTP(w, req) })
	if w.Code != http.StatusOK {
		return fmt.Errorf("replayed request: HTTP %d: %s", w.Code, w.Body.Bytes())
	}
	var err error
	if q.doc != nil {
		q.batch = &client.BatchResult{}
		err = json.Unmarshal(w.Body.Bytes(), q.batch)
	} else {
		q.order = &client.OrderResult{}
		err = json.Unmarshal(w.Body.Bytes(), q.order)
	}
	if err != nil {
		return fmt.Errorf("replayed request: %w", err)
	}
	if res := b.check(q, nil); res.failed > 0 {
		return fmt.Errorf("replayed request: %d of %d orderings failed their checks", res.failed, res.orders)
	}
	return nil
}

// replayInputs returns one pass of the workload's inputs for the replay,
// and at least two requests, so traced and untraced passes can alternate.
func (b *bench) replayInputs() ([]*request, error) {
	var qs []*request
	for k := 0; k < max(b.w.cycle, 2); k++ {
		q := &request{i: -1, idx: -1}
		var err error
		switch {
		case b.doc != nil:
			q.doc, err = b.gen.Doc()
		case b.working != nil:
			q.in, q.idx = b.working[k], k
		default:
			q.in, err = b.gen.Next(k)
		}
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// replay runs the traced replay and computes the per-layer metrics, with
// the counters of the measured phase ph.
func (b *bench) replay(ctx context.Context, ph *phase) (values, error) {
	qs, err := b.replayInputs()
	if err != nil {
		return nil, err
	}
	ws := scratch.Get()
	defer scratch.Put(ws)
	r := &replayer{b: b, ctx: ctx, rec: newRecorder(), ws: ws}
	runtime.GC()
	var plain, traced time.Duration
	for i, q := range qs {
		r.req = i
		r.rec.on = true
		root := r.rec.begin(i, -1, "request")
		if err := r.serve(root, q); err != nil {
			return nil, err
		}
		for pass := 0; pass < 2; pass++ {
			r.rec.on = (i+pass)%2 == 1
			t0 := time.Now()
			if err := b.w.replay(r, q, root); err != nil {
				return nil, err
			}
			if r.rec.on {
				traced += time.Since(t0)
			} else {
				plain += time.Since(t0)
			}
		}
		r.rec.on = true
		r.rec.end(root)
	}
	path := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-%d.json", b.w.name, b.seed))
	if err := r.rec.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("replayed %d requests, %d spans written to %s\n", len(qs), len(r.rec.spans), path)
	v := r.metrics(float64(len(qs)))
	v["trace.overhead_pct"] = 100 * (traced.Seconds()/plain.Seconds() - 1)
	b.phaseLayers(ph, v)
	return v, nil
}

// metrics turns the recorded spans into per-layer metrics, per replayed
// request unless named otherwise.
func (r *replayer) metrics(reqs float64) values {
	spans := r.rec.spans
	self := map[string]time.Duration{}
	var handler, explained time.Duration
	for i, t := range selfTimes(spans) {
		self[spans[i].Name] += t
		switch spans[i].Name {
		case "service.handler":
			handler += spans[i].dur()
		case "replay":
			explained += spans[i].dur() - t
		}
	}
	ms := func(name string) float64 { return float64(self[name]) / float64(time.Millisecond) / reqs }
	v := values{
		"service.handler_ms":            ms("service.handler"),
		"service.encode_perm_ms":        ms("service.encode_perm"),
		"service.unattributed_ms":       float64(handler-explained) / float64(time.Millisecond) / reqs,
		"mm.parse_ms":                   ms("mm.parse"),
		"mm.parse_ns_per_byte":          ratio(float64(self["mm.parse"]), float64(r.parsed)),
		"graph.fingerprint_ms":          ms("graph.fingerprint"),
		"graph.components_ms":           ms("graph.components"),
		"graph.subgraph_ms":             ms("graph.subgraph"),
		"pipeline.auto_ms":              ms("pipeline.auto"),
		"pipeline.batch_item_ms":        ratio(float64(self["pipeline.batch"])/float64(time.Millisecond), float64(r.items)),
		"store.get_ms":                  ms("store.get"),
		"solver.multilevel_ms":          ms("solver.multilevel"),
		"solver.lanczos_ms":             ms("solver.lanczos"),
		"multilevel.contract_ms":        ms("multilevel.contract"),
		"multilevel.coarsen_ratio":      ratio(r.coarsenSum, float64(r.contractions)),
		"laplacian.matvec_us":           ratio(float64(self["laplacian.matvec"])/float64(time.Microsecond), float64(r.matvecs)),
		"laplacian.matvec_gbs_computed": ratio(r.matvecBytes, self["laplacian.matvec"].Seconds()) / 1e9,
		"core.order_fiedler_ms":         ms("core.order_fiedler"),
		"core.sloan_refine_ms":          ms("core.sloan_refine"),
		"order.rcm_ms":                  ms("order.rcm"),
		"order.gk_ms":                   ms("order.gk"),
		"order.gps_ms":                  ms("order.gps"),
		"order.sloan_ms":                ms("order.sloan"),
		"envelope.score_ms":             ms("envelope.score"),
		"trace.spans_per_request":       float64(len(spans)) / reqs,
	}
	return v
}

// phaseLayers adds the per-layer metrics read from the measured phase: the
// daemon's counters, the solver statistics of the replies and the
// transport time of each request.
func (b *bench) phaseLayers(ph *phase, v values) {
	d := ph.after.sub(ph.before)
	orders := float64(ph.orders)
	v["pipeline.cache_hit_frac"] = frac(d.cacheHits, d.cacheMisses)
	v["store.hit_frac"] = frac(d.storeHits, d.storeMisses)
	v["store.gets_per_order"] = float64(ph.gets) / orders
	v["core.eigensolves_per_order"] = float64(ph.eigen) / orders
	var solves, converged, matvecs, rqi, jacobi, levels, coarsest float64
	var transport []float64
	for _, res := range ph.results {
		for _, st := range res.solves {
			solves++
			if st.Converged {
				converged++
			}
			matvecs += float64(st.MatVecs)
			rqi += float64(st.RQIIterations)
			jacobi += float64(st.JacobiSweeps)
			levels += float64(st.Levels)
			coarsest += float64(st.CoarsestN)
		}
		if t, ok := b.serverTime.Load(res.i); ok {
			transport = append(transport, float64(res.latency-t.(time.Duration))/float64(time.Millisecond))
		}
	}
	v["solver.matvecs"] = ratio(matvecs, solves)
	v["solver.rqi_iterations"] = ratio(rqi, solves)
	v["solver.jacobi_sweeps"] = ratio(jacobi, solves)
	v["solver.levels"] = ratio(levels, solves)
	v["solver.coarsest_n"] = ratio(coarsest, solves)
	v["solver.converged_frac"] = ratio(converged, solves)
	v["service.transport_ms"] = quantile(transport, 0.5)
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not
// cross).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
