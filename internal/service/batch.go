package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	envred "repro"
	"repro/internal/graph"
)

// POST /v1/order/batch: many graphs, one algorithm, one round trip. The
// batch rides Session.OrderBatch, so the per-request overhead a singleton
// /v1/order pays — result allocation, permutation re-validation, envelope
// re-scoring of cached orderings — is paid once per batch instead of once
// per graph. Items share the tenant's Session artifact cache and
// persistent store exactly as singleton requests do; a batch holds one
// solve-pool slot for its whole duration.

// batchRequestJSON is the JSON request document of POST /v1/order/batch.
// Algorithm/seed/timeout may also arrive as query parameters (the body
// wins). AUTO and WEIGHTED are not batchable: AUTO is a portfolio race
// with its own reply shape, WEIGHTED needs per-item edge weights.
type batchRequestJSON struct {
	Algorithm string `json:"algorithm,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Workers bounds the batch's internal parallelism (0 = GOMAXPROCS).
	Workers int             `json:"workers,omitempty"`
	Items   []batchItemJSON `json:"items"`
}

// batchItemJSON carries one graph, in either singleton encoding.
type batchItemJSON struct {
	Graph        *graphJSON `json:"graph,omitempty"`
	MatrixMarket string     `json:"matrix_market,omitempty"`
}

// batchItemError reports one failed item; successful items have their
// orderResponse at the same index of results and no entry here.
type batchItemError struct {
	Index   int    `json:"index"`
	Message string `json:"error"`
}

// batchResponseJSON is the batch reply: results[i] answers items[i]
// (null when that item failed — see errors), in one document.
type batchResponseJSON struct {
	Algorithm string            `json:"algorithm"`
	Count     int               `json:"count"`
	Failed    int               `json:"failed"`
	Results   []*orderResponse  `json:"results"`
	Errors    []*batchItemError `json:"errors,omitempty"`
	ElapsedMS float64           `json:"elapsed_ms"`
}

// maxBatchItems bounds one batch document; larger batches should be split
// (or sent as async jobs) rather than monopolize a solve-pool slot.
const maxBatchItems = 4096

func (s *Server) handleOrderBatch(w http.ResponseWriter, r *http.Request, tnt *tenant) {
	body, aerr := s.readBody(w, r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	var doc batchRequestJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		writeError(w, &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf("bad JSON body: %v", err)})
		return
	}
	q := r.URL.Query()
	if doc.Algorithm == "" {
		doc.Algorithm = q.Get("algorithm")
	}
	algorithm := strings.ToUpper(strings.TrimSpace(doc.Algorithm))
	if algorithm == "" {
		writeError(w, &apiError{Status: http.StatusBadRequest, Message: "batch requests must name an algorithm"})
		return
	}
	if algorithm == "AUTO" || algorithm == envred.AlgWeighted {
		writeError(w, &apiError{Status: http.StatusBadRequest,
			Message: fmt.Sprintf("algorithm %s is not batchable (use POST /v1/order per graph)", algorithm)})
		return
	}
	if _, ok := envred.Lookup(algorithm); !ok {
		writeError(w, &apiError{Status: http.StatusBadRequest,
			Message: fmt.Sprintf("unknown algorithm %q (registered: %s)", doc.Algorithm, strings.Join(envred.Algorithms(), ", "))})
		return
	}
	if len(doc.Items) == 0 {
		writeError(w, &apiError{Status: http.StatusBadRequest, Message: "batch carries no items"})
		return
	}
	if len(doc.Items) > maxBatchItems {
		writeError(w, &apiError{Status: http.StatusRequestEntityTooLarge,
			Message: fmt.Sprintf("batch has %d items, limit %d", len(doc.Items), maxBatchItems)})
		return
	}
	seed := doc.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	timeout := s.cfg.DefaultTimeout
	if doc.TimeoutMS != 0 {
		timeout = time.Duration(doc.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := orderCtx(r.Context(), &orderPayload{timeout: timeout})
	defer cancel()

	// Parse every item up front. A malformed item fails alone; valid items
	// proceed (graphs is compacted, idx maps back to items).
	resp := &batchResponseJSON{
		Algorithm: algorithm,
		Count:     len(doc.Items),
		Results:   make([]*orderResponse, len(doc.Items)),
	}
	graphs := make([]*envred.Graph, 0, len(doc.Items))
	idx := make([]int, 0, len(doc.Items))
	for i := range doc.Items {
		g, ierr := s.parseBatchItem(&doc.Items[i])
		if ierr != nil {
			resp.Errors = append(resp.Errors, &batchItemError{Index: i, Message: ierr.Message})
			continue
		}
		graphs = append(graphs, g)
		idx = append(idx, i)
	}

	s.m.inFlight.add(1)
	defer s.m.inFlight.add(-1)
	if aerr := acquire(ctx, tnt.sem); aerr != nil {
		s.m.orders.inc(algorithm, "timeout")
		writeError(w, aerr)
		return
	}
	defer release(tnt.sem)
	if aerr := acquire(ctx, s.solveSem); aerr != nil {
		s.m.orders.inc(algorithm, "timeout")
		writeError(w, aerr)
		return
	}
	defer release(s.solveSem)

	start := time.Now()
	var results []envred.BatchResult
	if len(graphs) > 0 {
		var err error
		results, err = tnt.sess.OrderBatch(ctx, graphs, envred.BatchOptions{
			Algorithm: algorithm,
			Seed:      seed,
			Workers:   doc.Workers,
		})
		if err != nil {
			// Unreachable after the Lookup above; report it uniformly anyway.
			writeError(w, &apiError{Status: http.StatusBadRequest, Message: err.Error()})
			return
		}
	}
	elapsed := time.Since(start)
	s.m.orderSeconds.observe(elapsed.Seconds())
	s.m.batches.inc()

	for k := range results {
		i, g := idx[k], graphs[k]
		cached := s.countSource(results[k].Result.Source)
		if err := results[k].Err; err != nil {
			aerr := orderError(err, results[k].Result, g)
			s.m.orders.inc(algorithm, statusLabel(aerr))
			resp.Errors = append(resp.Errors, &batchItemError{Index: i, Message: aerr.Message})
			continue
		}
		res := results[k].Result
		s.m.orders.inc(algorithm, "ok")
		if !cached && (res.Info != nil || res.Solve != nil) {
			s.m.eigenSeconds.observe(res.Elapsed.Seconds())
		}
		item := &orderResponse{
			Algorithm: res.Algorithm,
			N:         g.N(),
			Nonzeros:  g.Nonzeros(),
			Perm:      res.Perm,
			Envelope:  envelopeOf(res.Stats),
			Solve:     res.Solve,
			Cached:    cached,
			ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
		}
		if res.Info != nil {
			item.Lambda2 = res.Info.Lambda2
			if item.Solve == nil {
				solve := res.Info.Solve
				item.Solve = &solve
			}
		}
		resp.Results[i] = item
	}
	resp.Failed = len(resp.Errors)
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	s.logf("order-batch tenant=%s algorithm=%s items=%d failed=%d elapsed=%.1fms",
		tnt.name, algorithm, resp.Count, resp.Failed, resp.ElapsedMS)
	writeJSON(w, http.StatusOK, resp)
}

// parseBatchItem decodes one batch item into a graph (unweighted — the
// batch endpoint rejects WEIGHTED up front).
func (s *Server) parseBatchItem(item *batchItemJSON) (*graph.Graph, *apiError) {
	switch {
	case item.Graph != nil:
		g, _, aerr := buildGraphJSON(item.Graph, false)
		return g, aerr
	case item.MatrixMarket != "":
		g, _, aerr := parseMM(strings.NewReader(item.MatrixMarket), false)
		return g, aerr
	default:
		return nil, &apiError{Status: http.StatusBadRequest, Message: "item carries neither \"graph\" nor \"matrix_market\""}
	}
}
