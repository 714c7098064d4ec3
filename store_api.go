package envred

import (
	"repro/internal/graph"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// Persistent artifact store (tier 2) --------------------------------------
//
// A Store persists eigensolve artifacts — Fiedler vectors, the spectral
// orderings derived from them, solver statistics — keyed by content
// (graph fingerprint + option digest), so they outlive the process that
// computed them. Hand one to SessionOptions.Store and a Session fills its
// in-memory cache misses from the store and writes solves back; a second
// process (or daemon restart, or CLI run) pointed at the same store then
// orders the same matrix without a single eigensolve.

// Store is the persistent artifact store driver interface. Implementations
// must be safe for concurrent use. Open the built-in backends with
// OpenStore; add schemes with RegisterStoreDriver.
type Store = store.Store

// StoreKey addresses one persistent artifact entry: canonical graph
// fingerprint plus spectral-option digest. Compute one with StoreKeyFor.
type StoreKey = store.Key

// StoreArtifact is the persistent eigensolve record stored at a StoreKey.
type StoreArtifact = store.Artifact

// StoreDriver opens a Store from a parsed URL; see RegisterStoreDriver.
type StoreDriver = store.Driver

// StoreStats snapshots a CountedStore's traffic.
type StoreStats = store.Stats

// CountedStore wraps a Store with hit/miss/error accounting — the
// instrumentation the daemon's metrics and the CLI's -stats read.
type CountedStore = store.Counted

// GraphFingerprint is the canonical SHA-256 content identity of a Graph —
// the identity persistent store entries are addressed by.
type GraphFingerprint = graph.Fingerprint

// ResilientStore wraps any Store with the fault-tolerance layer network
// backends need: per-operation timeouts, capped full-jitter retries for
// transient errors, and a consecutive-failure circuit breaker that trips
// to cache-only operation, half-opens on a probe interval and exposes its
// state (State/Stats/Healthy). Wrap the raw store before handing it to
// SessionOptions.Store or the daemon so a dead backend costs one
// fast-failing probe, never a stalled solve.
type ResilientStore = store.Resilient

// ResilienceOptions tunes a ResilientStore (zero value = sane defaults).
type ResilienceOptions = store.ResilienceOptions

// ResilienceStats snapshots a ResilientStore's breaker state and counters.
type ResilienceStats = store.ResilienceStats

// BreakerState is a ResilientStore's circuit position.
type BreakerState = store.BreakerState

// Circuit breaker positions.
const (
	BreakerClosed   = store.BreakerClosed
	BreakerOpen     = store.BreakerOpen
	BreakerHalfOpen = store.BreakerHalfOpen
)

// NewResilientStore wraps s with timeouts, retries and a circuit breaker.
func NewResilientStore(s Store, opts ResilienceOptions) *ResilientStore {
	return store.NewResilient(s, opts)
}

// Store error sentinels: ErrStoreNotFound is the clean miss; ErrStoreCorrupt
// is wrapped by Get when an entry exists but cannot be decoded (callers
// treat it as a miss plus a counted error); ErrStoreTransient marks backend
// failures that may succeed on retry (the ResilientStore retries exactly
// these); ErrStoreUnavailable is the fast failure of an open circuit
// breaker.
var (
	ErrStoreNotFound    = store.ErrNotFound
	ErrStoreCorrupt     = store.ErrCorrupt
	ErrStoreTransient   = store.ErrTransient
	ErrStoreUnavailable = store.ErrUnavailable
)

// OpenStore opens a persistent artifact store by URL, dispatching on the
// scheme like database/sql:
//
//	fs:///var/cache/envorder?max_bytes=1073741824   on-disk store
//	mem://?max_entries=64                           in-process store
//	chaos://fs:///path?err_rate=0.2&seed=7          fault-injection wrapper
//	/var/cache/envorder                             bare path = fs
func OpenStore(url string) (Store, error) { return store.Open(url) }

// RegisterStoreDriver makes a driver available to OpenStore under the given
// URL scheme (init-time; panics on duplicates), leaving room for redis/SQL
// backends without touching callers.
func RegisterStoreDriver(scheme string, d StoreDriver) { store.Register(scheme, d) }

// StoreSchemes returns the registered store URL schemes, sorted.
func StoreSchemes() []string { return store.Schemes() }

// NewCountedStore wraps s with traffic counters; observe (optional) receives
// each operation's name and wall-clock seconds.
func NewCountedStore(s Store, observe func(op string, seconds float64)) *CountedStore {
	return store.NewCounted(s, observe)
}

// FingerprintOf returns g's canonical content fingerprint — the key of
// the Session cache, hashed once per Graph and memoized on it.
func FingerprintOf(g *Graph) GraphFingerprint { return graph.FingerprintOf(g) }

// StoreKeyFor computes the persistent-store key for g's artifacts under
// opt — the key a Session consults for the same graph and options. Useful
// for probing, pre-warming or invalidating entries out of band.
func StoreKeyFor(g *Graph, opt SpectralOptions) StoreKey {
	return pipeline.StoreKeyFor(g, opt)
}
