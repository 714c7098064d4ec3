package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
	"repro/internal/solver"
)

// Orderer is a pluggable ordering algorithm: anything that can produce a
// permutation of a graph. All built-ins (RCM, CM, GPS, GK, King, Sloan,
// Spectral, Spectral+Sloan, Weighted) implement it and self-register into
// the package registry; user implementations registered with Register race
// in Auto's portfolio on equal footing, per-component artifact cache
// included.
//
// The contract has two calling modes:
//
//   - Portfolio mode (inside Auto): g is one connected component of ≥ 3
//     vertices of the graph the engine was given.
//   - Whole-graph mode (Session.Order and direct calls): g is the caller's
//     full, possibly disconnected, possibly empty graph; the Orderer must
//     handle every component itself.
//
// req.Artifacts, when non-nil, is the memoized artifact cache describing
// exactly the g being passed — use it for the Fiedler vector, the
// pseudo-peripheral root or the pseudo-diameter pair instead of
// recomputing them. It is always set in portfolio mode, and a caching
// Session also sets it for connected whole-graph input, so its presence
// does not distinguish the modes; correct implementations treat both the
// same — order the g they are given, using the artifacts when offered.
//
// Implementations must be deterministic for a fixed (graph, request) — the
// engine's reproducibility contract extends to them — must not retain
// req.Workspace or any buffer from it past the call, must treat slices
// obtained from req.Artifacts (the Fiedler vector, the spectral ordering)
// as read-only — they are the memoized copies every other candidate and
// later cached call reads — must not drive req.Artifacts.Operator()
// themselves (the shared instance supports one matvec at a time and may be
// mid-eigensolve on another worker; wrap the graph in laplacian.Auto for a
// private operator) — and must honor ctx:
// return promptly (with ctx.Err() or a *lanczos.ErrCancelled) once it is
// cancelled. Only Result.Perm and optionally Result.Solve and Result.Info
// need to be filled in; the engine computes Stats, Algorithm and Elapsed.
//
// A panic in an implementation fails the call, not the process: every
// engine entry point (Session.Order, the portfolio race, batch workers)
// recovers it into a *PanicError carrying the value and stack.
type Orderer interface {
	Order(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error)
}

// OrdererFunc adapts a plain function to the Orderer interface.
type OrdererFunc func(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error)

// Order implements Orderer.
func (f OrdererFunc) Order(ctx context.Context, g *graph.Graph, req *OrderRequest) (Result, error) {
	return f(ctx, g, req)
}

// OrderRequest carries everything an Orderer may need beyond the graph.
// The zero value is valid: built-ins fall back to default options.
type OrderRequest struct {
	// Algorithm is the canonical registry name the orderer was invoked
	// under (useful for one Orderer registered under several names).
	Algorithm string
	// Seed drives randomized pieces; fixed seed ⇒ reproducible run.
	Seed int64
	// Spectral carries the eigensolver options for spectral orderers. Its
	// Seed defaults to OrderRequest.Seed when zero.
	Spectral core.Options
	// Weight is an optional symmetric positive edge-weight function (by the
	// labels of g as passed). The WEIGHTED built-in requires it; the
	// portfolio engine relabels Options.Weight per component before
	// invoking candidates.
	Weight func(u, v int) float64
	// Artifacts, when non-nil, is the memoized artifact cache for the graph
	// being ordered — always set in portfolio mode, and also set by a
	// caching Session on connected whole-graph input (see Orderer).
	Artifacts *Artifacts
	// Workspace is the calling worker's scratch, or nil (orderers that want
	// one then check it out of the shared pool via the workspace helper).
	Workspace *scratch.Workspace
}

// spectral returns the request's eigensolver options with the seed
// defaulted from the request seed.
func (r *OrderRequest) spectral() core.Options {
	s := r.Spectral
	if s.Seed == 0 {
		s.Seed = r.Seed
	}
	return s
}

// workspace returns the request's workspace, checking one out of the
// shared pool (with a release func) when the caller did not provide one.
func (r *OrderRequest) workspace() (*scratch.Workspace, func()) {
	if r.Workspace != nil {
		return r.Workspace, func() {}
	}
	ws := scratch.Get()
	return ws, func() { scratch.Put(ws) }
}

// Result is the uniform outcome of one ordering run — what Session.Order,
// Session.Auto and every registered Orderer trade in.
type Result struct {
	// Perm is the computed ordering (new→old).
	Perm perm.Perm
	// Algorithm is the canonical name of the algorithm that produced Perm
	// (for Auto: the portfolio engine's name, with per-component winners in
	// Report).
	Algorithm string
	// Stats are the envelope parameters of Perm on the input graph.
	Stats envelope.Stats
	// Solve carries the eigensolver statistics behind the run (nil for
	// purely combinatorial orderings).
	Solve *solver.Stats
	// Info carries the full spectral diagnostics (λ2, residual, direction)
	// when the run was a spectral ordering; nil otherwise.
	Info *core.Info
	// Elapsed is the wall-clock ordering time.
	Elapsed time.Duration
	// Report is the full portfolio report when the run came from the Auto
	// engine; nil otherwise.
	Report *Report
	// Source says where the run's cached artifacts came from (set by the
	// Session; registered Orderers leave it zero).
	Source Source
}

// Source says where the expensive artifacts behind a Session result came
// from. Requests with an edge-weight function or a caller-supplied
// operator always report SourceSolved.
type Source uint8

const (
	// SourceSolved: anything other than the two cases below — the call
	// computed what it needed, or ran uncached.
	SourceSolved Source = iota
	// SourceMemory: the graph content's cache entry was resident when the
	// call looked it up.
	SourceMemory
	// SourceStore: the call's eigensolve was loaded from the persistent
	// store.
	SourceStore
)

var sourceNames = [...]string{SourceSolved: "solved", SourceMemory: "memory", SourceStore: "store"}

// String returns "solved", "memory" or "store".
func (s Source) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return fmt.Sprintf("Source(%d)", s)
}

// MarshalText renders the String form, so JSON reports name the source.
func (s Source) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// SourceOf classifies a call that looked its graph's content up in the
// cache (resident) and then used arts (nil entries allowed).
func SourceOf(resident bool, arts ...*Artifacts) Source {
	if resident {
		return SourceMemory
	}
	for _, a := range arts {
		if a != nil && a.fromStore() {
			return SourceStore
		}
	}
	return SourceSolved
}

// Registry ------------------------------------------------------------------

var (
	regMu    sync.RWMutex
	registry = map[string]Orderer{}
)

// Canonical normalizes an algorithm name to its registry form (upper-case,
// surrounding space trimmed): lookups and portfolio specs are
// case-insensitive.
func Canonical(name string) string {
	return strings.ToUpper(strings.TrimSpace(name))
}

// Register adds an Orderer under the given (case-insensitive) name. It
// errors on an empty name, a nil Orderer, or a name already taken — the
// registry is append-only so a portfolio spec can never silently change
// meaning. Safe for concurrent use.
func Register(name string, o Orderer) error {
	key := Canonical(name)
	if key == "" {
		return fmt.Errorf("pipeline: Register: empty algorithm name")
	}
	if o == nil {
		return fmt.Errorf("pipeline: Register %q: nil Orderer", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[key]; dup {
		return fmt.Errorf("pipeline: Register %q: already registered", key)
	}
	registry[key] = o
	return nil
}

// MustRegister is Register that panics on error — for package init blocks.
func MustRegister(name string, o Orderer) {
	if err := Register(name, o); err != nil {
		panic(err)
	}
}

// Lookup returns the Orderer registered under name (case-insensitive).
func Lookup(name string) (Orderer, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	o, ok := registry[Canonical(name)]
	return o, ok
}

// Algorithms returns the sorted canonical names of every registered
// Orderer — built-ins and user registrations alike.
func Algorithms() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
