package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint is the canonical content identity of a Graph: the SHA-256
// digest of its CSR arrays. Two graphs have equal fingerprints exactly when
// they are structurally identical (same vertex count, same canonical
// adjacency), regardless of how or where they were built — the identity the
// Session artifact cache and the persistent artifact store both key by, so
// an eigensolve computed for a matrix in one process is addressable from
// any other.
type Fingerprint [sha256.Size]byte

// String returns the lowercase hex form — stable, filesystem- and
// URL-safe, suitable for store entry names and log lines.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// FingerprintOf returns g's content fingerprint. The first call hashes the
// CSR arrays chunk-wise through a fixed buffer (no allocation proportional
// to the graph) and memoizes the digest on g; graphs are immutable after
// construction, so later calls return the memo. Safe for concurrent use:
// racing first calls hash twice and store equal values.
func FingerprintOf(g *Graph) Fingerprint {
	if fp := g.fp.Load(); fp != nil {
		return *fp
	}
	fp := hashCSR(g)
	g.fp.Store(&fp)
	return fp
}

func hashCSR(g *Graph) Fingerprint {
	h := sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(g.N()))
	h.Write(hdr[:])
	var buf [4 * 4096]byte
	hashInt32s(h, buf[:], g.Xadj)
	hashInt32s(h, buf[:], g.Adj)
	return Fingerprint(h.Sum(nil))
}

func hashInt32s(h interface{ Write([]byte) (int, error) }, buf []byte, vals []int32) {
	for len(vals) > 0 {
		n := len(buf) / 4
		if n > len(vals) {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(vals[i]))
		}
		h.Write(buf[:4*n])
		vals = vals[n:]
	}
}
