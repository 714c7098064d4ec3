package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric describes one reported number. End-to-end metrics carry the
// bound by which they may worsen; per-layer metrics name the end-to-end
// metric and workload they are expected to move.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	moves  string // per-layer: "<end-to-end metric> on <workload>"
	what   string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, what: "server start, warm-up and cache or store fill; median of the run's set-ups"},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25, what: "client-observed time per request (per document for batches), median"},
	{name: "latency_p90_ms", unit: "ms", better: "lower", bound: 0.25, what: "client-observed time per request (per document for batches), 90th percentile"},
	{name: "orders_per_s", unit: "1/s", better: "higher", bound: 0.25, what: "orderings completed per busy second, batch items counted; median over passes"},
	{name: "esize_vs_rcm", unit: "ratio", better: "lower", bound: 0.15, what: "geometric mean of returned Esize over envred.RCM's Esize, over the working set or the first 3 passes"},
	{name: "alloc_kb_per_order", unit: "KiB", better: "lower", bound: 0.1, what: "heap bytes allocated by the process per ordering; median over passes"},
	{name: "heap_peak_mb", unit: "MiB", better: "lower", bound: 0.25, what: "peak heap held by live and unswept objects during a pass; median over passes"},
	{name: "cpu_ms_per_order", unit: "ms", better: "lower", bound: 0.25, what: "process CPU time per ordering, server and client; median over passes"},
}

// perLayer are the metrics of a traced run (--trace 1). A layer a
// workload does not cross reads 0 on it.
var perLayer = []metric{
	{name: "service.handler_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on warm-repeat", what: "in-process ServeHTTP on a recorder, per request"},
	{name: "service.transport_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on warm-repeat", what: "client latency minus server handler time, median"},
	{name: "service.encode_perm_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on warm-repeat", what: "JSON encoding of the returned permutations, per request"},
	{name: "service.unattributed_ms", unit: "ms", better: "lower", moves: "none: the handler time the replay does not explain", what: "handler time minus the replayed layer spans, per request"},
	{name: "mm.parse_ms", unit: "ms", better: "lower", moves: "latency_p50_ms and orders_per_s on warm-repeat; no change on cold-spectral", what: "mm.ReadGraph, per request"},
	{name: "mm.parse_ns_per_byte", unit: "ns/B", better: "lower", moves: "latency_p50_ms on warm-repeat", what: "mm.ReadGraph time over Matrix Market bytes"},
	{name: "graph.fingerprint_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on warm-repeat", what: "graph.FingerprintOf, per request"},
	{name: "graph.components_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on auto-churn", what: "graph.Components, per request"},
	{name: "graph.subgraph_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on auto-churn", what: "Graph.SubgraphInto over the components, per request"},
	{name: "pipeline.auto_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on auto-churn", what: "pipeline.Auto with a store-backed cache, per request"},
	{name: "pipeline.batch_item_ms", unit: "ms", better: "lower", moves: "orders_per_s on batch-small", what: "Session.OrderBatch time per item"},
	{name: "pipeline.cache_hit_frac", unit: "ratio", better: "higher", moves: "latency_p50_ms on warm-repeat", what: "graph-cache hits over lookups, /metrics deltas"},
	{name: "store.get_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on auto-churn", what: "Store.Get, per request"},
	{name: "store.gets_per_order", unit: "count", better: "lower", moves: "latency_p50_ms on auto-churn", what: "Store.Get calls reaching the backend per ordering, advisory probe included"},
	{name: "store.hit_frac", unit: "ratio", better: "higher", moves: "latency_p50_ms on auto-churn", what: "store hits over hits and misses, /metrics deltas"},
	{name: "solver.multilevel_ms", unit: "ms", better: "lower", moves: "latency_p90_ms on cold-spectral", what: "multilevel Fiedler solve, per request"},
	{name: "solver.lanczos_ms", unit: "ms", better: "lower", moves: "orders_per_s on batch-small and latency_p50_ms on cold-spectral", what: "direct Lanczos Fiedler solve, per request"},
	{name: "solver.matvecs", unit: "count", better: "lower", moves: "latency_p50_ms on cold-spectral", what: "Laplacian applications per ordering, from the returned solver stats"},
	{name: "solver.rqi_iterations", unit: "count", better: "lower", moves: "latency_p90_ms on cold-spectral", what: "RQI steps per ordering, from the returned solver stats"},
	{name: "solver.jacobi_sweeps", unit: "count", better: "lower", moves: "latency_p90_ms on cold-spectral", what: "Jacobi smoothing sweeps per ordering, from the returned solver stats"},
	{name: "solver.levels", unit: "count", better: "lower", moves: "latency_p90_ms on cold-spectral", what: "hierarchy depth per ordering, from the returned solver stats"},
	{name: "solver.coarsest_n", unit: "count", better: "lower", moves: "latency_p90_ms on cold-spectral", what: "coarsest-level vertices per ordering, from the returned solver stats"},
	{name: "solver.converged_frac", unit: "ratio", better: "higher", moves: "esize_vs_rcm on cold-spectral", what: "share of orderings whose solve converged"},
	{name: "multilevel.contract_ms", unit: "ms", better: "lower", moves: "latency_p90_ms on cold-spectral", what: "multilevel.ContractWS over the levels the solve reported, per request"},
	{name: "multilevel.coarsen_ratio", unit: "ratio", better: "lower", moves: "latency_p90_ms on cold-spectral", what: "mean coarse over fine vertices per contraction"},
	{name: "laplacian.matvec_us", unit: "us", better: "lower", moves: "latency_p50_ms on cold-spectral", what: "laplacian.Auto(g).Apply, mean per application"},
	{name: "laplacian.matvec_gbs_computed", unit: "GB/s", better: "higher", moves: "latency_p50_ms on cold-spectral", what: "CSR and vector bytes computed from array sizes over matvec time"},
	{name: "core.order_fiedler_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on cold-spectral", what: "core.OrderFiedler (sort and direction choice), per request"},
	{name: "core.sloan_refine_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on auto-churn", what: "core.SloanRefine over the components, per request"},
	{name: "core.eigensolves_per_order", unit: "count", better: "lower", moves: "latency_p50_ms on every workload", what: "core.EigensolveCount delta per ordering"},
	{name: "order.rcm_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on auto-churn", what: "order.RCM over the components, per request"},
	{name: "order.gk_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on auto-churn", what: "order.GK over the components, per request"},
	{name: "order.gps_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on auto-churn", what: "order.GPS over the components, per request"},
	{name: "order.sloan_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on auto-churn", what: "order.Sloan over the components, per request"},
	{name: "envelope.score_ms", unit: "ms", better: "lower", moves: "latency_p50_ms on warm-repeat and auto-churn", what: "envelope.ComputeInto over the scored orderings, per request"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "none: cost of recording spans", what: "traced over untraced replay time of the same calls, minus 1"},
	{name: "trace.spans_per_request", unit: "count", better: "lower", moves: "none: size of the trace", what: "spans recorded per replayed request"},
}

// values holds one run's measured metrics by name.
type values map[string]float64

// report prints every metric of set by name with its unit, then the JSON
// result line, which is the last line of the output.
func report(w io.Writer, set []metric, v values, correct bool, attempted, failed int) error {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{correct, attempted, failed, map[string]entry{}}
	for _, m := range set {
		x, ok := v[m.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Fprintf(w, "%-30s %14.6g %s\n", m.name, x, m.unit)
		out.Metrics[m.name] = entry{x, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// list prints every metric with its unit, direction and, for end-to-end
// metrics, bound; for per-layer metrics, what they should move.
func list(w io.Writer) {
	fmt.Fprintln(w, "end-to-end metrics (--trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-22s %-6s %-6s bound %.2f  %s\n", m.name, m.unit, m.better, m.bound, m.what)
	}
	fmt.Fprintln(w, "per-layer metrics (--trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %-6s %-6s moves %s; %s\n", m.name, m.unit, m.better, m.moves, m.what)
	}
	fmt.Fprintln(w, "workloads:")
	for _, w0 := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", w0.name, w0.why)
	}
}

// quantile returns the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
