package envred

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/perm"
	"repro/internal/pipeline"
	"repro/internal/scratch"
)

// SessionOptions configures a Session. The zero value is a good default:
// seed 0, automatic eigensolver selection, GOMAXPROCS portfolio workers
// and a DefaultCacheGraphs-sized artifact cache.
type SessionOptions struct {
	// Seed drives every randomized piece of the session's runs; fixed seed
	// ⇒ reproducible results.
	Seed int64
	// Spectral carries the eigensolver options used when a call does not
	// supply its own. Its Seed defaults to SessionOptions.Seed when zero.
	Spectral SpectralOptions
	// Parallelism bounds Session.Auto's worker pool (≤ 0 = GOMAXPROCS).
	Parallelism int
	// Portfolio is Session.Auto's contender list by registry name (empty =
	// DefaultPortfolio).
	Portfolio []string
	// Budget soft-limits Session.Auto runs (0 = unlimited); see
	// AutoOptions.Budget.
	Budget time.Duration
	// CacheGraphs bounds the per-graph artifact cache: > 0 sets the
	// capacity, 0 means DefaultCacheGraphs, < 0 disables caching.
	CacheGraphs int
	// Store, when non-nil, is the persistent tier behind the in-memory
	// cache (see OpenStore): cache misses probe it by content fingerprint
	// before solving, successful solves are written back, and a corrupt or
	// unreadable entry degrades to a miss — never a wrong answer. The
	// session does not own the store: the caller opens it, may share it
	// across sessions and processes, and closes it after the session is
	// done. Setting Store implies an artifact cache even when CacheGraphs
	// < 0 (the store is reached through it). See the package documentation
	// ("Persistent artifact store") for the full contract.
	Store Store
}

// Session is a reusable, goroutine-safe ordering service: it owns a
// per-graph artifact cache (component decomposition, extracted subgraphs,
// Fiedler eigensolves, peripheral roots and pseudo-diameter pairs, LRU-
// bounded by SessionOptions.CacheGraphs) and runs every call on the shared
// scratch-arena, Lanczos-workspace and parallel-SpMV worker pools, so a
// long-lived Session amortizes all of that across calls — the serving
// shape the top-level convenience functions (Spectral, Auto, Fiedler, …)
// now delegate to through a lazily-initialized default Session.
//
// All methods are context-first: cancellation and deadlines interrupt
// in-flight eigensolves at restart / V-cycle granularity, returning the
// typed *ErrCancelled with the best-so-far fallback inside. Methods may be
// called concurrently from any number of goroutines; concurrent calls on
// the same graph share cached artifacts instead of repeating work.
//
// The in-memory cache is tier 1: keyed by graph content (so distinct Graph
// values with equal content share it), it lives and dies with the
// Session. SessionOptions.Store adds a persistent tier 2 keyed by the same
// content fingerprint plus the eigensolver options — tier-1 misses are
// filled from the store before solving and solves are written back, so
// eigensolves survive restarts and pool across processes sharing one
// store. Result.Source reports which tier, if either, served a call.
//
// Caching never changes results: every cached artifact is a pure function
// of the graph and the options, so Session calls are byte-identical to the
// uncached top-level functions (pinned by the shim-equivalence tests) —
// and store-warmed calls to both.
type Session struct {
	opt   SessionOptions
	cache *pipeline.Cache
}

// NewSession returns a Session with the given options. The zero
// SessionOptions value is valid.
func NewSession(opt SessionOptions) *Session {
	s := &Session{opt: opt}
	if opt.CacheGraphs >= 0 || opt.Store != nil {
		s.cache = pipeline.NewCache(opt.CacheGraphs)
		if opt.Store != nil {
			s.cache.SetStore(opt.Store)
		}
	}
	return s
}

var (
	defaultSessionOnce sync.Once
	defaultSession     *Session
)

// DefaultSession returns the lazily-initialized process-wide Session the
// top-level convenience functions (Spectral, SpectralSloan,
// WeightedSpectral, Auto, Fiedler) delegate to. Its artifact cache
// retains up to DefaultCacheGraphs recently-ordered graphs (with their
// extracted subgraphs and Fiedler vectors) to amortize repeated calls;
// call DefaultSession().Reset() to release that working set, or hold a
// dedicated NewSession(SessionOptions{CacheGraphs: -1}) for strictly
// stateless behavior.
func DefaultSession() *Session {
	defaultSessionOnce.Do(func() {
		defaultSession = NewSession(SessionOptions{})
	})
	return defaultSession
}

// spectral returns the session-default eigensolver options with the seed
// defaulted.
func (s *Session) spectral() SpectralOptions {
	opt := s.opt.Spectral
	if opt.Seed == 0 {
		opt.Seed = s.opt.Seed
	}
	return opt
}

// Order runs one registered algorithm (see Algorithms) on g — the whole
// graph, disconnected inputs included — and reports the uniform Result.
// The algorithm name is case-insensitive; unknown names error with the
// registered list.
func (s *Session) Order(ctx context.Context, g *Graph, algorithm string) (Result, error) {
	return s.Do(ctx, g, algorithm, OrderRequest{Seed: s.opt.Seed, Spectral: s.opt.Spectral})
}

// OrderWeighted is Order with a symmetric positive edge-weight function —
// the input of the WEIGHTED spectral algorithm (and of any registered
// Orderer that reads OrderRequest.Weight).
func (s *Session) OrderWeighted(ctx context.Context, g *Graph, algorithm string, weight func(u, v int) float64) (Result, error) {
	return s.Do(ctx, g, algorithm, OrderRequest{Seed: s.opt.Seed, Spectral: s.opt.Spectral, Weight: weight})
}

// Do runs a registered algorithm with an explicit request — the escape
// hatch Order and OrderWeighted are sugar over, and the one the
// compatibility shims use to pass per-call eigensolver options. The
// request's Seed defaults to the session's; its Artifacts and Workspace
// fields are managed by the engine and should be left nil.
func (s *Session) Do(ctx context.Context, g *Graph, algorithm string, req OrderRequest) (Result, error) {
	var slot BatchResult
	s.do(ctx, g, algorithm, req, true, &slot)
	return slot.Result, slot.Err
}

// do runs one ordering into slot — the single path behind Do, the
// compatibility shims and every OrderBatch item. slot.Result.Perm's
// capacity is reused, and Result.Solve/Info point into the slot.
// Result.Stats is optional: the historical shims discard the envelope
// parameters, so the orderer path skips that O(n+nnz) scan for them.
func (s *Session) do(ctx context.Context, g *Graph, algorithm string, req OrderRequest, wantStats bool, slot *BatchResult) {
	if ctx == nil {
		ctx = context.Background()
	}
	name := pipeline.Canonical(algorithm)
	ord, ok := pipeline.Lookup(name)
	if !ok {
		slot.Result, slot.Err = Result{}, fmt.Errorf("envred: unknown algorithm %q (registered: %v)", algorithm, Algorithms())
		return
	}
	if req.Seed == 0 {
		req.Seed = s.opt.Seed
	}
	// Pre-default the spectral seed exactly as the portfolio engine does,
	// so a registered Orderer observes the same request whether it was
	// invoked here or raced inside Auto.
	if req.Spectral.Seed == 0 {
		req.Spectral.Seed = req.Seed
	}
	req.Algorithm = name
	// On connected inputs, hand the orderer the session's memoized
	// whole-graph artifact cache (eigensolve, peripheral root, pseudo-
	// diameter): repeated Order calls on the same content — and mixed
	// SPECTRAL / SPECTRAL+SLOAN / BFS-rooted calls — then share the
	// expensive precomputations. Artifacts are pure functions of
	// (graph, options), so results stay byte-identical to the uncached
	// path (pinned by the shim-equivalence golden test). Components of
	// < 3 vertices and disconnected graphs take the whole-graph path.
	// A caller-supplied operator (req.Spectral.Operator or
	// req.Spectral.Multilevel.FinestOp) bypasses the cache: the caller
	// wants that exact instance driven (instrumented or preconditioned
	// operators), and cached artifacts install their own.
	var art *Artifacts
	resident := false
	if req.Artifacts == nil && s.cache != nil && req.Spectral.Operator == nil &&
		req.Spectral.Multilevel.FinestOp == nil && g.N() >= 3 {
		art, resident = s.cache.WholeIfConnected(g, req.Spectral)
		req.Artifacts = art
	}
	start := time.Now()
	if name == pipeline.AlgSpectral && art != nil {
		spectralInto(ctx, art, req.Workspace, slot)
	} else {
		slot.Result, slot.Err = orderChecked(ctx, ord, name, g, req, art != nil, wantStats)
	}
	slot.Result.Algorithm = name
	slot.Result.Elapsed = time.Since(start)
	if req.Weight == nil {
		slot.Result.Source = pipeline.SourceOf(resident, art)
	}
}

// spectralInto serves SPECTRAL from memoized whole-graph artifacts
// without allocating on a warm slot: the ordering is copied into the
// slot's Perm buffer, Solve/Info are backed by slot-owned values, and the
// envelope statistics come from the artifact's own memo (SpectralStats)
// instead of a fresh O(n+nnz) scan per call. The memoized ordering was
// validated when it entered the memo (fresh solves by construction, store
// hits by the tier-2 probe's Check), so orderChecked's re-validation is
// not repeated. A failed solve leaves the same Result the SPECTRAL
// Orderer reports for it. ws may be nil (see SpectralStats).
func spectralInto(ctx context.Context, art *Artifacts, ws *Workspace, slot *BatchResult) {
	o, stats, reversed, st, err := art.SpectralStats(ctx, ws)
	p := slot.Result.Perm[:0]
	slot.solve = st
	pipeline.FillConnectedInfo(&slot.info, st, reversed, err)
	slot.Result = Result{Solve: &slot.solve, Info: &slot.info}
	slot.Err = err
	if err == nil {
		slot.Result.Perm = append(p, o...)
		slot.Result.Stats = stats
	}
}

// orderChecked runs a registered Orderer and validates what it returns.
// req arrives by value so that only this path, whose Orderer call takes
// its address, moves a request to the heap.
func orderChecked(ctx context.Context, ord Orderer, name string, g *Graph, req OrderRequest, cached, wantStats bool) (Result, error) {
	// SafeOrder: a panicking registered Orderer becomes this call's error
	// (*pipeline.PanicError, stack attached) — a third-party algorithm can
	// fail a request, never the process hosting the Session.
	res, err := pipeline.SafeOrder(ctx, ord, name, g, &req)
	if err != nil {
		return res, err
	}
	if cached && res.Perm != nil {
		// The artifact-backed paths may return the memoized ordering
		// itself; callers own their Result, so hand out a copy and keep the
		// cache immutable.
		res.Perm = append(perm.Perm(nil), res.Perm...)
	}
	// Length first: Check only proves the slice permutes its own indices,
	// and the envelope scorer panics on a size mismatch.
	if len(res.Perm) != g.N() {
		return res, fmt.Errorf("envred: %s returned a %d-length ordering for a %d-vertex graph", name, len(res.Perm), g.N())
	}
	if cerr := res.Perm.Check(); cerr != nil {
		return res, fmt.Errorf("envred: %s returned an invalid permutation: %w", name, cerr)
	}
	if wantStats {
		res.Stats = envelope.Compute(g, res.Perm)
	}
	return res, nil
}

// Auto races the session's portfolio per connected component (see the
// package-level Auto) with the session's seed, parallelism and budget,
// reusing the session's per-graph artifact cache. The full per-component
// report rides in Result.Report.
func (s *Session) Auto(ctx context.Context, g *Graph) (Result, error) {
	return s.AutoWith(ctx, g, AutoOptions{
		Seed:        s.opt.Seed,
		Spectral:    s.opt.Spectral,
		Parallelism: s.opt.Parallelism,
		Portfolio:   s.opt.Portfolio,
		Budget:      s.opt.Budget,
	})
}

// AutoWith is Auto with explicit engine options (the session contributes
// its artifact cache, and ctx overrides opt.Context).
func (s *Session) AutoWith(ctx context.Context, g *Graph, opt AutoOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt.Context = ctx
	if opt.Cache == nil {
		opt.Cache = s.cache
	}
	start := time.Now()
	p, rep, err := pipeline.Auto(g, opt)
	res := Result{
		Perm:      p,
		Algorithm: "AUTO",
		Stats:     rep.Stats,
		Report:    &rep,
		Elapsed:   time.Since(start),
	}
	if rep.Eigensolves > 0 {
		solve := rep.Solve
		res.Solve = &solve
	}
	res.Source = rep.Source
	return res, err
}

// Fiedler computes the Fiedler vector of the connected graph g with the
// session's eigensolver options, reporting the uniform solver statistics
// (λ2 in Stats.Lambda) and where the solve came from. Repeated calls on
// the same content are served from the session's artifact cache — the
// eigensolve runs once.
func (s *Session) Fiedler(ctx context.Context, g *Graph) ([]float64, SolveStats, Source, error) {
	return s.fiedler(ctx, g, s.spectral())
}

func (s *Session) fiedler(ctx context.Context, g *Graph, opt core.Options) ([]float64, SolveStats, Source, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ws := scratch.Get()
	defer scratch.Put(ws)
	// Caller-supplied operators bypass the cache for the same reason Do's
	// do: the caller wants that exact instance driven, while cached
	// artifacts install their own shared operator.
	src := pipeline.SourceSolved
	if s.cache != nil && opt.Operator == nil && opt.Multilevel.FinestOp == nil {
		a, resident := s.cache.WholeIfConnected(g, opt)
		if a != nil {
			x, st, err := a.Fiedler(ctx, ws)
			if x != nil {
				// The memoized vector stays cache-owned; callers get a copy.
				x = append([]float64(nil), x...)
			}
			return x, st, pipeline.SourceOf(resident, a), err
		}
		src = pipeline.SourceOf(resident)
	}
	// No cache (or unspecified disconnected input): solve directly, exactly
	// as the historical core path does.
	x, st, err := core.FiedlerConnectedWS(ctx, ws, g, opt)
	return x, st, src, err
}

// Reset drops the session's in-memory artifact cache, releasing every
// graph, subgraph and eigenvector it was pinning. Useful when a long-lived
// Session (including the DefaultSession behind the top-level shims) has
// finished with a working set of graphs and the memory should go back to
// the collector. The persistent store (SessionOptions.Store) is untouched:
// a reset session re-warms from it by content instead of re-solving.
func (s *Session) Reset() {
	if s.cache != nil {
		s.cache.Clear()
	}
}
