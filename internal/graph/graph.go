// Package graph provides a compressed sparse row (CSR) representation of
// undirected graphs — the adjacency structure of sparse symmetric matrices —
// together with the traversal primitives the ordering algorithms need:
// breadth-first search, rooted level structures, connected components and
// pseudo-peripheral vertex location.
//
// A Graph is immutable after construction. Vertices are labeled 0..N-1.
// Self-loops are never stored (the matrix diagonal is implicit), and each
// undirected edge {u,v} appears in both adjacency lists.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/scratch"
)

// Graph is an undirected graph in CSR form. The neighbors of vertex v are
// Adj[Xadj[v]:Xadj[v+1]], sorted in increasing order. Graphs are built with
// NewBuilder or one of the constructors and must not be mutated afterwards.
type Graph struct {
	// Xadj has length N+1; Xadj[v] is the offset of v's adjacency list.
	Xadj []int32
	// Adj holds the concatenated, sorted adjacency lists (length 2·edges).
	Adj []int32

	fp atomic.Pointer[Fingerprint] // memoized FingerprintOf; nil until first asked
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.Xadj) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.Adj) / 2 }

// Degree returns the number of neighbors of v (excluding any self-loop,
// which is never stored).
func (g *Graph) Degree(v int) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

// Neighbors returns the adjacency list of v as a shared sub-slice.
// Callers must not modify it.
func (g *Graph) Neighbors(v int) []int32 { return g.Adj[g.Xadj[v]:g.Xadj[v+1]] }

// MaxDegree returns the maximum vertex degree (Δ in the paper), or 0 for an
// empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether the edge {u,v} is present. It binary-searches the
// shorter adjacency list.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= int32(v) })
	return i < len(adj) && adj[i] == int32(v)
}

// Validate checks the structural invariants of the CSR form: monotone Xadj,
// in-range sorted duplicate-free neighbor lists, no self-loops and symmetric
// adjacency. It is used by tests and by constructors that ingest external
// data.
func (g *Graph) Validate() error {
	n := g.N()
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count")
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0] = %d, want 0", g.Xadj[0])
	}
	if int(g.Xadj[n]) != len(g.Adj) {
		return fmt.Errorf("graph: Xadj[n] = %d, want len(Adj) = %d", g.Xadj[n], len(g.Adj))
	}
	for v := 0; v < n; v++ {
		if g.Xadj[v+1] < g.Xadj[v] {
			return fmt.Errorf("graph: Xadj not monotone at %d", v)
		}
		adj := g.Neighbors(v)
		for i, w := range adj {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: neighbor %d of %d out of range", w, v)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && adj[i-1] >= w {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: edge %d-%d not symmetric", v, w)
			}
		}
	}
	return nil
}

// Edges returns all undirected edges {u,v} with u < v, in lexicographic
// order. It allocates a fresh slice.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.M())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if int(w) > v {
				edges = append(edges, [2]int{v, int(w)})
			}
		}
	}
	return edges
}

// Nonzeros returns the number of stored entries of the corresponding
// symmetric matrix pattern counting the diagonal and one triangle:
// N + M. This matches the "nonzeros" convention of the paper's tables for
// lower-triangular storage.
func (g *Graph) Nonzeros() int { return g.N() + g.M() }

// Builder accumulates undirected edges and produces a canonical Graph.
// Duplicate edges and self-loops are discarded; edges may be added in any
// order and direction.
type Builder struct {
	n  int
	us []int32
	vs []int32
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// Grow reserves room for m more edges, so that many AddEdge calls do not
// reallocate. m is a hint: callers sizing it from untrusted input should
// cap it.
func (b *Builder) Grow(m int) {
	// One make each, rather than slices.Grow, whose append-of-make costs
	// a second, temporary allocation in race-instrumented builds.
	if m > 0 && cap(b.us)-len(b.us) < m {
		b.us = append(make([]int32, 0, len(b.us)+m), b.us...)
		b.vs = append(make([]int32, 0, len(b.vs)+m), b.vs...)
	}
}

// AddEdge records the undirected edge {u,v}. Self-loops are ignored.
// AddEdge panics if either endpoint is out of range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// Build produces the canonical CSR graph via a two-pass counting sort over
// the directed arcs — O(n + m), deterministic, no comparison sort. The
// Builder may be reused after Build; already-added edges are retained.
func (b *Builder) Build() *Graph {
	n := b.n
	// Each undirected edge {u,v} contributes the arcs u→v and v→u, so the
	// multisets of arc sources and arc targets coincide and one prefix-sum
	// table serves both counting passes.
	deg := make([]int32, n+1)
	for i := range b.us {
		deg[b.us[i]+1]++
		deg[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	nArcs := deg[n]
	// Pass 1: bucket arcs by target, recording each arc's source.
	off := make([]int32, n)
	copy(off, deg[:n])
	srcByTarget := make([]int32, nArcs)
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		srcByTarget[off[v]] = u
		off[v]++
		srcByTarget[off[u]] = v
		off[u]++
	}
	// Pass 2: scan targets in increasing order and append each to its
	// source's list. The stable placement leaves every adjacency list
	// sorted with duplicates adjacent.
	copy(off, deg[:n])
	adj := make([]int32, nArcs)
	for t := 0; t < n; t++ {
		for k := deg[t]; k < deg[t+1]; k++ {
			s := srcByTarget[k]
			adj[off[s]] = int32(t)
			off[s]++
		}
	}
	// Dedupe each (sorted) list, compacting in place.
	xadj := make([]int32, n+1)
	out := int32(0)
	for v := 0; v < n; v++ {
		start := out
		prev := int32(-1)
		for k := deg[v]; k < deg[v+1]; k++ {
			if w := adj[k]; w != prev {
				adj[out] = w
				prev = w
				out++
			}
		}
		xadj[v] = start
	}
	xadj[n] = out
	if out < nArcs {
		// Duplicates were dropped: copy so the graph does not pin the slack.
		adj = append([]int32(nil), adj[:out]...)
	}
	return &Graph{Xadj: xadj, Adj: adj}
}

// FromEdges builds a graph on n vertices from an edge list. It is a
// convenience wrapper around Builder.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// FromCSR constructs a Graph from raw CSR arrays, validating the invariants.
// The slices are retained; callers must not modify them afterwards.
func FromCSR(xadj, adj []int32) (*Graph, error) {
	if len(xadj) == 0 {
		return nil, fmt.Errorf("graph: empty Xadj")
	}
	g := &Graph{Xadj: xadj, Adj: adj}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Subgraph extracts the induced subgraph on the given vertices. It returns
// the subgraph and the mapping from new labels (positions in verts) back to
// old labels. Vertices must be distinct and in range.
func (g *Graph) Subgraph(verts []int) (*Graph, []int) {
	ws := scratch.Get()
	defer scratch.Put(ws)
	dst := &Graph{}
	g.SubgraphInto(ws, dst, verts)
	old := append([]int(nil), verts...)
	return dst, old
}

// SubgraphInto extracts the induced subgraph on verts into dst, reusing
// dst's CSR slices when their capacity allows; with a warm dst and ws the
// extraction is allocation-free. The old labels of the result are the
// entries of verts (new label i ↔ verts[i]); unlike Subgraph no copy of
// verts is made. Vertices must be distinct and in range; dst must not
// alias g.
//
// Relabeling uses the workspace's stamp map instead of a heap-allocated
// map, and when verts is sorted ascending (as graph.Components guarantees)
// the neighbor lists are emitted directly in sorted order with no per-list
// sort at all.
//
// Contract: on return ws's stamp map holds the old→new binding
// (MapGet(verts[i]) = i, misses elsewhere) until the next MapReset; callers
// relabeling further data against the same vertex set may rely on it.
func (g *Graph) SubgraphInto(ws *scratch.Workspace, dst *Graph, verts []int) {
	dst.fp.Store(nil) // dst's content changes below
	nv := len(verts)
	ws.MapReset(g.N())
	sorted := true
	for i, v := range verts {
		ws.MapSet(v, int32(i))
		if i > 0 && verts[i-1] >= v {
			sorted = false
		}
	}
	if cap(dst.Xadj) >= nv+1 {
		dst.Xadj = dst.Xadj[:nv+1]
	} else {
		dst.Xadj = make([]int32, nv+1)
	}
	adj := dst.Adj[:0]
	for i, v := range verts {
		dst.Xadj[i] = int32(len(adj))
		for _, w := range g.Neighbors(v) {
			if j, ok := ws.MapGet(int(w)); ok {
				adj = append(adj, j)
			}
		}
	}
	dst.Xadj[nv] = int32(len(adj))
	dst.Adj = adj
	if !sorted {
		// Relabeling by an unsorted verts permutes neighbor values, so each
		// list must be re-sorted to restore the CSR invariant.
		for i := 0; i < nv; i++ {
			slices.Sort(adj[dst.Xadj[i]:dst.Xadj[i+1]])
		}
	}
}
