package pipeline

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/store"
)

// StoreKeyFor computes the persistent-store key for g's artifacts under
// sopt: the graph's canonical content fingerprint paired with a digest of
// the spectral options, normalized exactly like the in-memory artifact
// maps (artKey — operator plumbing cleared), so tier 1 and tier 2 agree on
// what "the same solve" means. The fingerprint half is g's memoized
// FingerprintOf, so keying a graph the cache has seen costs no hash.
func StoreKeyFor(g *graph.Graph, sopt core.Options) store.Key {
	return store.Key{Graph: graph.FingerprintOf(g), Opts: OptionDigest(sopt)}
}

// OptionDigest hashes the identity-bearing spectral options into the store
// key's option half. After artKey clears the per-solve operator fields,
// every remaining field is a scalar, so the %#v rendering is a canonical
// deterministic encoding of the option set (and automatically picks up
// fields added to core.Options later).
func OptionDigest(sopt core.Options) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%#v", artKey(sopt))))
}
