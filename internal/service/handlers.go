package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	envred "repro"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/perm"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// Wire format ----------------------------------------------------------------

// orderRequestJSON is the JSON request document of POST /v1/order,
// POST /v1/jobs and /v1/fiedler. Exactly one of Graph and MatrixMarket
// must carry the graph. Query parameters (algorithm, seed, timeout) fill
// any field the body leaves zero.
type orderRequestJSON struct {
	Algorithm    string     `json:"algorithm,omitempty"`
	Seed         int64      `json:"seed,omitempty"`
	TimeoutMS    int64      `json:"timeout_ms,omitempty"`
	Graph        *graphJSON `json:"graph,omitempty"`
	MatrixMarket string     `json:"matrix_market,omitempty"`
}

// graphJSON is the adjacency-list graph encoding: n vertices labeled
// 0..n-1 and an undirected edge list (duplicates and self-loops are
// dropped). Weights, when present, align with Edges and feed the WEIGHTED
// algorithm.
type graphJSON struct {
	N       int       `json:"n"`
	Edges   [][2]int  `json:"edges"`
	Weights []float64 `json:"weights,omitempty"`
}

// orderResponse is the ordering reply document.
type orderResponse struct {
	Algorithm string       `json:"algorithm"`
	N         int          `json:"n"`
	Nonzeros  int          `json:"nonzeros"`
	Perm      perm.Perm    `json:"perm"`
	Envelope  envelopeJSON `json:"envelope"`
	// Lambda2 and Solve report the eigensolver when the algorithm ran one.
	Lambda2 float64       `json:"lambda2,omitempty"`
	Solve   *solver.Stats `json:"solve,omitempty"`
	// Winners and Eigensolves summarize AUTO portfolio runs.
	Winners     map[string]int `json:"winners,omitempty"`
	Eigensolves int            `json:"eigensolves,omitempty"`
	// Cached is true when the Session reported Source memory or store: the
	// graph's content was resident in the tenant's artifact cache, or this
	// call loaded its eigensolve from the persistent store (the
	// warm-restart case).
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// envelopeJSON mirrors envelope.Stats with stable snake_case field names.
type envelopeJSON struct {
	Esize         int64 `json:"esize"`
	Ework         int64 `json:"ework"`
	Bandwidth     int   `json:"bandwidth"`
	OneSum        int64 `json:"one_sum"`
	TwoSum        int64 `json:"two_sum"`
	MaxFrontwidth int   `json:"max_frontwidth"`
}

func envelopeOf(s envelope.Stats) envelopeJSON {
	return envelopeJSON{
		Esize:         s.Esize,
		Ework:         s.Ework,
		Bandwidth:     s.Bandwidth,
		OneSum:        s.OneSum,
		TwoSum:        s.TwoSum,
		MaxFrontwidth: s.MaxFrontwidth,
	}
}

// apiError is the uniform error reply: {"error": ...} plus, on 503
// timeouts, the best_so_far flag and — when an interrupted eigensolve
// left a usable fallback — the partial ordering itself.
type apiError struct {
	Status    int       `json:"-"`
	Message   string    `json:"error"`
	BestSoFar *bool     `json:"best_so_far,omitempty"`
	Perm      perm.Perm `json:"perm,omitempty"`
}

func (e *apiError) Error() string { return e.Message }

func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(doc)
}

func writeError(w http.ResponseWriter, e *apiError) {
	writeJSON(w, e.Status, e)
}

// Request parsing -------------------------------------------------------------

// orderPayload is a parsed, validated ordering request.
type orderPayload struct {
	algorithm string // canonical registry name, or "AUTO"
	seed      int64
	timeout   time.Duration
	g         *graph.Graph
	// weight is non-nil for WEIGHTED requests; they always report
	// cached=false (the pattern may repeat with different values).
	weight func(u, v int) float64
}

// parseOrderPayload reads one ordering request. JSON bodies carry the
// orderRequestJSON document; any other content type is a raw Matrix
// Market body with parameters in the query string, parsed as it streams
// in. Query errors give 400 before any of the body is read; oversize
// bodies give 413, malformed graphs 400.
func (s *Server) parseOrderPayload(w http.ResponseWriter, r *http.Request) (*orderPayload, *apiError) {
	p := &orderPayload{seed: s.cfg.Seed, timeout: s.cfg.DefaultTimeout}
	q := r.URL.Query()
	algorithm := q.Get("algorithm")
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf("bad seed %q: %v", v, err)}
		}
		p.seed = n
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return nil, &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf("bad timeout %q (want a Go duration like 2s): %v", v, err)}
		}
		p.timeout = d
	}

	var doc orderRequestJSON
	isJSON := strings.Contains(r.Header.Get("Content-Type"), "json")
	if isJSON {
		body, aerr := s.readBody(w, r)
		if aerr != nil {
			return nil, aerr
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf("bad JSON body: %v", err)}
		}
		if doc.Algorithm != "" {
			algorithm = doc.Algorithm
		}
		if doc.Seed != 0 {
			p.seed = doc.Seed
		}
		if doc.TimeoutMS != 0 {
			p.timeout = time.Duration(doc.TimeoutMS) * time.Millisecond
		}
	}
	if algorithm == "" {
		algorithm = "auto"
	}
	p.algorithm = strings.ToUpper(strings.TrimSpace(algorithm))
	if p.algorithm != "AUTO" {
		if _, ok := envred.Lookup(p.algorithm); !ok {
			return nil, &apiError{Status: http.StatusBadRequest,
				Message: fmt.Sprintf("unknown algorithm %q (registered: %s, plus AUTO)", algorithm, strings.Join(envred.Algorithms(), ", "))}
		}
	}
	weighted := p.algorithm == envred.AlgWeighted

	var aerr *apiError
	switch {
	case isJSON && doc.Graph != nil:
		p.g, p.weight, aerr = buildGraphJSON(doc.Graph, weighted)
	case isJSON && doc.MatrixMarket != "":
		p.g, p.weight, aerr = parseMM(strings.NewReader(doc.MatrixMarket), weighted)
	case isJSON:
		aerr = &apiError{Status: http.StatusBadRequest, Message: "JSON body carries neither \"graph\" nor \"matrix_market\""}
	default:
		p.g, p.weight, aerr = s.streamMM(w, r, weighted)
	}
	if aerr != nil {
		return nil, aerr
	}
	if weighted && p.weight == nil {
		return nil, &apiError{Status: http.StatusBadRequest, Message: "algorithm WEIGHTED needs edge weights (a valued Matrix Market body, or graph.weights)"}
	}
	return p, nil
}

// readBody drains the request body under the configured size cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes()))
	if err != nil {
		return nil, bodyError(err)
	}
	return body, nil
}

// bodyError maps a failed body read to the wire: 413 past the size cap,
// 400 otherwise.
func bodyError(err error) *apiError {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &apiError{Status: http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit)}
	}
	return &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf("reading body: %v", err)}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// streamMM parses a raw Matrix Market body straight from the connection
// under the size cap, without buffering it first.
func (s *Server) streamMM(w http.ResponseWriter, r *http.Request, weighted bool) (*graph.Graph, func(u, v int) float64, *apiError) {
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())}
	g, weight, err := readMM(body, weighted)
	// Drain what the parse left unread, so an oversize body is 413
	// however its prefix parsed. The cap's error is sticky: the drain
	// also reports one the parse ran into.
	if _, drainErr := io.Copy(io.Discard, body); drainErr != nil {
		return nil, nil, bodyError(drainErr)
	}
	switch {
	case body.n == 0:
		return nil, nil, &apiError{Status: http.StatusBadRequest, Message: "empty body (send a Matrix Market matrix, or a JSON document with Content-Type: application/json)"}
	case err != nil:
		return nil, nil, &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf("bad Matrix Market body: %v", err)}
	}
	return g, weight, nil
}

func buildGraphJSON(doc *graphJSON, weighted bool) (*graph.Graph, func(u, v int) float64, *apiError) {
	if doc.N < 0 {
		return nil, nil, &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf("graph.n = %d is negative", doc.N)}
	}
	if weighted && len(doc.Weights) != len(doc.Edges) {
		return nil, nil, &apiError{Status: http.StatusBadRequest,
			Message: fmt.Sprintf("graph.weights has %d entries for %d edges", len(doc.Weights), len(doc.Edges))}
	}
	b := graph.NewBuilder(doc.N)
	weights := map[[2]int]float64{}
	for i, e := range doc.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= doc.N || v < 0 || v >= doc.N {
			return nil, nil, &apiError{Status: http.StatusBadRequest,
				Message: fmt.Sprintf("edge %d (%d,%d) out of range [0,%d)", i, u, v, doc.N)}
		}
		b.AddEdge(u, v)
		if weighted && u != v {
			if u > v {
				u, v = v, u
			}
			weights[[2]int{u, v}] = doc.Weights[i]
		}
	}
	g := b.Build()
	if !weighted {
		return g, nil, nil
	}
	return g, func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		if w, ok := weights[[2]int{u, v}]; ok && w > 0 {
			return w
		}
		return 1
	}, nil
}

func parseMM(r io.Reader, weighted bool) (*graph.Graph, func(u, v int) float64, *apiError) {
	g, weight, err := readMM(r, weighted)
	if err != nil {
		return nil, nil, &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf("bad Matrix Market body: %v", err)}
	}
	return g, weight, nil
}

// readMM reads a Matrix Market body, keeping entry magnitudes for
// weighted requests.
func readMM(r io.Reader, weighted bool) (*graph.Graph, func(u, v int) float64, error) {
	if weighted {
		return mm.ReadWeighted(r)
	}
	g, err := mm.ReadGraph(r)
	return g, nil, err
}

// Ordering execution ----------------------------------------------------------

// runOrder executes one ordering end to end: tenant concurrency budget,
// global solve pool, dispatch, metrics. ctx must already carry the
// request's timeout; queueing counts against it.
func (s *Server) runOrder(ctx context.Context, tnt *tenant, p *orderPayload) (*orderResponse, *apiError) {
	s.m.inFlight.add(1)
	defer s.m.inFlight.add(-1)

	if aerr := acquire(ctx, tnt.sem); aerr != nil {
		s.m.orders.inc(p.algorithm, "timeout")
		return nil, aerr
	}
	defer release(tnt.sem)
	if aerr := acquire(ctx, s.solveSem); aerr != nil {
		s.m.orders.inc(p.algorithm, "timeout")
		return nil, aerr
	}
	defer release(s.solveSem)

	start := time.Now()
	var (
		res envred.Result
		err error
	)
	if p.algorithm == "AUTO" {
		res, err = tnt.sess.AutoWith(ctx, p.g, envred.AutoOptions{Seed: p.seed})
	} else {
		res, err = tnt.sess.Do(ctx, p.g, p.algorithm, envred.OrderRequest{Seed: p.seed, Weight: p.weight})
	}
	elapsed := time.Since(start)
	s.m.orderSeconds.observe(elapsed.Seconds())
	cached := s.countSource(res.Source)

	if err != nil {
		aerr := orderError(err, res, p.g)
		s.m.orders.inc(p.algorithm, statusLabel(aerr))
		return nil, aerr
	}
	spectral := res.Info != nil || res.Solve != nil ||
		(res.Report != nil && res.Report.Eigensolves > 0)
	if spectral && !cached {
		s.m.eigenSeconds.observe(elapsed.Seconds())
	}
	s.m.orders.inc(p.algorithm, "ok")

	resp := &orderResponse{
		Algorithm: res.Algorithm,
		N:         p.g.N(),
		Nonzeros:  p.g.Nonzeros(),
		Perm:      res.Perm,
		Envelope:  envelopeOf(res.Stats),
		Solve:     res.Solve,
		Cached:    cached,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	if res.Info != nil {
		resp.Lambda2 = res.Info.Lambda2
		if resp.Solve == nil {
			solve := res.Info.Solve
			resp.Solve = &solve
		}
	}
	if res.Report != nil {
		resp.Winners = res.Report.Wins
		resp.Eigensolves = res.Report.Eigensolves
	}
	return resp, nil
}

// countSource records a Session result's Source in the cache metrics
// (only memory counts as a hit) and reports the response's cached flag.
func (s *Server) countSource(src envred.Source) (cached bool) {
	if src == envred.SourceMemory {
		s.m.cacheHits.inc()
	} else {
		s.m.cacheMisses.inc()
	}
	return src != envred.SourceSolved
}

// acquire takes one slot of sem (nil = unlimited), honoring ctx.
func acquire(ctx context.Context, sem chan struct{}) *apiError {
	if sem == nil {
		return nil
	}
	select {
	case sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		f := false
		return &apiError{Status: http.StatusServiceUnavailable,
			Message: fmt.Sprintf("request expired while queued: %v", ctx.Err()), BestSoFar: &f}
	}
}

func release(sem chan struct{}) {
	if sem != nil {
		<-sem
	}
}

// orderError maps an ordering failure to the wire. A cancelled eigensolve
// (deadline or client disconnect) is 503; when the run left a usable
// best-so-far ordering — either a valid permutation in the result or a
// fallback Fiedler vector inside the typed cancellation error — the reply
// carries it with best_so_far=true, so callers with hard latency budgets
// still get a (suboptimal but valid) ordering for their money.
func orderError(err error, res envred.Result, g *graph.Graph) *apiError {
	var ec *envred.ErrCancelled
	if errors.As(err, &ec) {
		p := res.Perm
		if len(p) != g.N() || p.Check() != nil {
			p = nil
		}
		if p == nil && ec.Vector != nil && len(ec.Vector) == g.N() {
			ws := scratch.Get()
			p, _, _ = core.OrderFiedler(ws, g, ec.Vector)
			scratch.Put(ws)
		}
		best := p != nil
		return &apiError{Status: http.StatusServiceUnavailable,
			Message: fmt.Sprintf("ordering interrupted: %v", err), BestSoFar: &best, Perm: p}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		f := false
		return &apiError{Status: http.StatusServiceUnavailable,
			Message: fmt.Sprintf("ordering interrupted: %v", err), BestSoFar: &f}
	}
	return &apiError{Status: http.StatusInternalServerError, Message: err.Error()}
}

func statusLabel(e *apiError) string {
	switch e.Status {
	case http.StatusServiceUnavailable:
		return "timeout"
	case http.StatusBadRequest:
		return "invalid"
	default:
		return "error"
	}
}

// orderCtx applies the payload timeout on top of parent.
func orderCtx(parent context.Context, p *orderPayload) (context.Context, context.CancelFunc) {
	if p.timeout > 0 {
		return context.WithTimeout(parent, p.timeout)
	}
	return context.WithCancel(parent)
}

// Handlers --------------------------------------------------------------------

func (s *Server) handleOrder(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	p, aerr := s.parseOrderPayload(w, r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	ctx, cancel := orderCtx(r.Context(), p)
	defer cancel()
	resp, aerr := s.runOrder(ctx, tnt, p)
	if aerr != nil {
		s.logf("order tenant=%s algorithm=%s n=%d status=%d err=%q", tnt.name, p.algorithm, p.g.N(), aerr.Status, aerr.Message)
		writeError(w, aerr)
		return
	}
	s.logf("order tenant=%s algorithm=%s n=%d esize=%d cached=%v elapsed=%.1fms",
		tnt.name, resp.Algorithm, resp.N, resp.Envelope.Esize, resp.Cached, resp.ElapsedMS)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	p, aerr := s.parseOrderPayload(w, r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	j := &job{id: newJobID(), tenant: tnt, payload: p, created: time.Now(), state: jobQueued}
	if aerr := s.submitJob(j); aerr != nil {
		writeError(w, aerr)
		return
	}
	s.logf("job %s submitted tenant=%s algorithm=%s n=%d", j.id, tnt.name, p.algorithm, p.g.N())
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	j, ok := s.jobs.get(r.PathValue("id"), tnt)
	if !ok {
		writeError(w, &apiError{Status: http.StatusNotFound, Message: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	j, ok := s.jobs.get(r.PathValue("id"), tnt)
	if !ok {
		writeError(w, &apiError{Status: http.StatusNotFound, Message: "unknown job"})
		return
	}
	j.mu.Lock()
	state, resp, fail := j.state, j.resp, j.fail
	j.mu.Unlock()
	switch state {
	case jobDone:
		writeJSON(w, http.StatusOK, resp)
	case jobFailed:
		writeError(w, fail)
	default:
		// Not terminal yet: 202 with the poll document.
		writeJSON(w, http.StatusAccepted, j.status())
	}
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request, _ *tenant) {
	writeJSON(w, http.StatusOK, map[string]any{
		// AUTO is the service-level portfolio mode on top of the registry.
		"algorithms": append([]string{"AUTO"}, envred.Algorithms()...),
	})
}

// fiedlerResponse is the /v1/fiedler reply.
type fiedlerResponse struct {
	N         int           `json:"n"`
	Lambda2   float64       `json:"lambda2"`
	Vector    []float64     `json:"vector"`
	Solve     *solver.Stats `json:"solve,omitempty"`
	Cached    bool          `json:"cached"` // as orderResponse.Cached
	ElapsedMS float64       `json:"elapsed_ms"`
}

func (s *Server) handleFiedler(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	p, aerr := s.parseOrderPayload(w, r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	ctx, cancel := orderCtx(r.Context(), p)
	defer cancel()

	s.m.inFlight.add(1)
	defer s.m.inFlight.add(-1)
	if aerr := acquire(ctx, tnt.sem); aerr != nil {
		writeError(w, aerr)
		return
	}
	defer release(tnt.sem)
	if aerr := acquire(ctx, s.solveSem); aerr != nil {
		writeError(w, aerr)
		return
	}
	defer release(s.solveSem)

	start := time.Now()
	vec, st, src, err := tnt.sess.Fiedler(ctx, p.g)
	elapsed := time.Since(start)
	cached := s.countSource(src)
	if err != nil {
		var ec *envred.ErrCancelled
		if errors.As(err, &ec) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			best := ec != nil && ec.Vector != nil
			writeError(w, &apiError{Status: http.StatusServiceUnavailable,
				Message: fmt.Sprintf("eigensolve interrupted: %v", err), BestSoFar: &best})
			return
		}
		writeError(w, &apiError{Status: http.StatusBadRequest, Message: err.Error()})
		return
	}
	if !cached {
		s.m.eigenSeconds.observe(elapsed.Seconds())
	}
	writeJSON(w, http.StatusOK, fiedlerResponse{
		N:         p.g.N(),
		Lambda2:   st.Lambda,
		Vector:    vec,
		Solve:     &st,
		Cached:    cached,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	})
}

// handleHealthz is the liveness probe: always 200 while the process can
// answer HTTP. A degraded persistent store is reported in the body but
// never fails liveness — the daemon keeps serving from its in-memory
// caches; restarting it would only throw those away too. Readiness detail
// lives on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"in_flight":      s.m.inFlight.value(),
	}
	if s.resilient != nil {
		doc["store"] = s.resilient.State().String()
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleReadyz is the readiness probe. Like /healthz it always answers
// 200 — an open store breaker means cache-only operation, not an
// unservable daemon, so readiness reports "degraded" in the body instead
// of flapping the probe — but the body carries the full breaker detail:
// position, failure streak, retry/timeout/drop counters, and the last
// error, failure and healthy-op timestamps.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"in_flight":      s.m.inFlight.value(),
	}
	switch {
	case s.resilient != nil:
		rs := s.resilient.Stats()
		storeDoc := map[string]any{
			"breaker":              rs.State.String(),
			"consecutive_failures": rs.ConsecutiveFailures,
			"retries":              rs.Retries,
			"timeouts":             rs.Timeouts,
			"fast_fails":           rs.FastFails,
			"put_drops":            rs.PutDrops,
			"trips":                rs.Trips,
			"recoveries":           rs.Recoveries,
		}
		if rs.LastError != "" {
			storeDoc["last_error"] = rs.LastError
		}
		if !rs.LastFailure.IsZero() {
			storeDoc["last_failure_unix_ms"] = rs.LastFailure.UnixMilli()
		}
		if !rs.LastSuccess.IsZero() {
			storeDoc["last_success_unix_ms"] = rs.LastSuccess.UnixMilli()
		}
		doc["store"] = storeDoc
		if rs.Degraded {
			doc["status"] = "degraded"
		}
	case s.store != nil:
		// A store without the resilience wrapper has no breaker to report.
		doc["store"] = map[string]any{"breaker": "none"}
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.writeTo(w)
}
