package order

import (
	"container/heap"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// GK computes the Gibbs–King ordering (Gibbs' "hybrid profile reduction"
// Algorithm 509, as implemented by Lewis in TOMS 582): the GPS
// pseudo-diameter and level-structure combination, but with King's
// minimum-frontwidth-growth numbering inside each level, then reversal.
// GK is the envelope champion among the local algorithms in the paper.
func GK(g *graph.Graph) perm.Perm {
	ws := scratch.Get()
	defer scratch.Put(ws)
	return overComponentsWS(ws, g, gkComponentInto)
}

func gkComponentInto(_ *scratch.Workspace, g *graph.Graph, out []int32) []int32 {
	switch g.N() {
	case 0:
		return out
	case 1:
		return append(out, 0)
	}
	return append(out, gkNumber(g, diameterAndCombine(g))...)
}

func gkNumber(g *graph.Graph, c *combined) []int32 {
	order := numberByKing(g, c)
	reverse(order)
	return order
}

// GKFromDiameter is the Gibbs–King ordering of the connected graph g built
// on a precomputed pseudo-diameter (see GPSFromDiameter). The level
// structures are read, never modified.
func GKFromDiameter(g *graph.Graph, u, v int, lsU, lsV *graph.LevelStructure) perm.Perm {
	if g.N() == 1 {
		return perm.Perm{0}
	}
	return perm.Perm(gkNumber(g, combineLevelStructures(g, u, v, lsU, lsV)))
}

// kingState maintains King's greedy criterion incrementally.
//
// grow[w] = number of unnumbered neighbors of w not yet in the front: the
// exact number of vertices that numbering w would add to the front. Placing
// a vertex moves its unnumbered neighbors into the front, which decrements
// grow for *their* neighbors; each edge is touched O(1) times overall, so
// the total maintenance cost is O(m) plus heap traffic.
type kingState struct {
	g        *graph.Graph
	numbered []bool
	inFront  []bool
	grow     []int32
	order    []int32
}

func newKingState(g *graph.Graph) *kingState {
	n := g.N()
	ks := &kingState{
		g:        g,
		numbered: make([]bool, n),
		inFront:  make([]bool, n),
		grow:     make([]int32, n),
		order:    make([]int32, 0, n),
	}
	for v := 0; v < n; v++ {
		ks.grow[v] = int32(g.Degree(v))
	}
	return ks
}

// place numbers v, updating the front and the grow counters. It returns
// the vertices whose grow value changed (for heap re-push).
func (ks *kingState) place(v int32, touched *[]int32) {
	g := ks.g
	ks.numbered[v] = true
	wasInFront := ks.inFront[v]
	ks.inFront[v] = false
	ks.order = append(ks.order, v)
	if !wasInFront {
		// v skipped the front entirely: it still counted in its neighbors'
		// grow, so remove it now.
		for _, w := range g.Neighbors(int(v)) {
			if !ks.numbered[w] {
				ks.grow[w]--
				*touched = append(*touched, w)
			}
		}
	}
	for _, u := range g.Neighbors(int(v)) {
		if ks.numbered[u] || ks.inFront[u] {
			continue
		}
		// u enters the front: u no longer counts toward grow of its
		// unnumbered neighbors.
		ks.inFront[u] = true
		*touched = append(*touched, u)
		for _, x := range g.Neighbors(int(u)) {
			if !ks.numbered[x] {
				ks.grow[x]--
				*touched = append(*touched, x)
			}
		}
	}
}

// kingItem is a lazily-invalidated heap entry ordered by (grow, degree,
// label).
type kingItem struct {
	grow int32
	deg  int32
	v    int32
}

type kingHeap []kingItem

func (h kingHeap) Len() int { return len(h) }
func (h kingHeap) Less(i, j int) bool {
	if h[i].grow != h[j].grow {
		return h[i].grow < h[j].grow
	}
	if h[i].deg != h[j].deg {
		return h[i].deg < h[j].deg
	}
	return h[i].v < h[j].v
}
func (h kingHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *kingHeap) Push(x any)   { *h = append(*h, x.(kingItem)) }
func (h *kingHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// numberByKing numbers the combined level structure level by level; inside
// a level it repeatedly numbers, among unnumbered level vertices in the
// front (or all remaining level vertices when the front misses the level),
// the one whose numbering introduces the fewest new vertices into the
// front — King's greedy wavefront rule. Ties break by degree then label.
func numberByKing(g *graph.Graph, c *combined) []int32 {
	ks := newKingState(g)
	var touched []int32
	ks.place(int32(c.start), &touched)

	for l := 0; l < c.k; l++ {
		level := c.levels[l]
		inLevel := func(w int32) bool { return c.levelOf[w] == int32(l) }
		remaining := 0
		h := make(kingHeap, 0, len(level))
		for _, w := range level {
			if !ks.numbered[w] {
				remaining++
				if ks.inFront[w] {
					h = append(h, kingItem{ks.grow[w], int32(g.Degree(int(w))), w})
				}
			}
		}
		heap.Init(&h)
		for remaining > 0 {
			var pick int32 = -1
			for h.Len() > 0 {
				it := heap.Pop(&h).(kingItem)
				if ks.numbered[it.v] || !ks.inFront[it.v] || ks.grow[it.v] != it.grow {
					continue // stale entry
				}
				pick = it.v
				break
			}
			if pick < 0 {
				// The front does not reach this level (level-internal
				// disconnection): seed with the min-(grow,deg) remaining
				// level vertex.
				for _, w := range level {
					if ks.numbered[w] {
						continue
					}
					if pick < 0 || ks.grow[w] < ks.grow[pick] ||
						(ks.grow[w] == ks.grow[pick] && better(g, w, pick)) {
						pick = w
					}
				}
			}
			touched = touched[:0]
			ks.place(pick, &touched)
			remaining--
			for _, w := range touched {
				if !ks.numbered[w] && ks.inFront[w] && inLevel(w) {
					heap.Push(&h, kingItem{ks.grow[w], int32(g.Degree(int(w))), w})
				}
			}
		}
	}
	return ks.order
}

// better is the shared tie-break: lower degree, then lower label. A
// negative incumbent always loses.
func better(g *graph.Graph, w, incumbent int32) bool {
	if incumbent < 0 {
		return true
	}
	dw, di := g.Degree(int(w)), g.Degree(int(incumbent))
	if dw != di {
		return dw < di
	}
	return w < incumbent
}

// King computes King's profile-reduction ordering on the whole graph
// (no level structure): from a pseudo-peripheral root, always number the
// front vertex introducing the fewest new front vertices, then reverse.
// Provided both as a baseline in its own right and as the reference the
// GK within-level variant is tested against.
func King(g *graph.Graph) perm.Perm {
	ws := scratch.Get()
	defer scratch.Put(ws)
	return overComponentsWS(ws, g, kingComponentInto)
}

func kingComponentInto(_ *scratch.Workspace, g *graph.Graph, out []int32) []int32 {
	if g.N() == 0 {
		return out
	}
	root, _ := graph.PseudoPeripheral(g, 0)
	return append(out, kingRooted(g, root)...)
}

// KingFromRoot is King's ordering of the connected graph g from a
// precomputed pseudo-peripheral root (see CuthillMcKeeFromRootWS).
func KingFromRoot(g *graph.Graph, root int) perm.Perm {
	return perm.Perm(kingRooted(g, root))
}

func kingRooted(g *graph.Graph, root int) []int32 {
	n := g.N()
	ks := newKingState(g)
	var touched []int32
	h := make(kingHeap, 0, n)
	ks.place(int32(root), &touched)
	for _, w := range touched {
		if !ks.numbered[w] && ks.inFront[w] {
			heap.Push(&h, kingItem{ks.grow[w], int32(g.Degree(int(w))), w})
		}
	}
	for len(ks.order) < n {
		var pick int32 = -1
		for h.Len() > 0 {
			it := heap.Pop(&h).(kingItem)
			if ks.numbered[it.v] || !ks.inFront[it.v] || ks.grow[it.v] != it.grow {
				continue
			}
			pick = it.v
			break
		}
		if pick < 0 {
			break // disconnected remainder; overComponentsWS prevents this
		}
		touched = touched[:0]
		ks.place(pick, &touched)
		for _, w := range touched {
			if !ks.numbered[w] && ks.inFront[w] {
				heap.Push(&h, kingItem{ks.grow[w], int32(g.Degree(int(w))), w})
			}
		}
	}
	reverse(ks.order)
	return ks.order
}
