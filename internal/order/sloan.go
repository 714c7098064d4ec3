package order

import (
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// SloanWeights are the priority weights of Sloan's algorithm. The priority
// of a candidate v is  W1·dist(v,end) − W2·(cdeg(v)+1), where cdeg is the
// current degree (unnumbered, not-yet-active neighbors). Sloan's recommended
// defaults are W1=1, W2=2.
type SloanWeights struct {
	W1, W2 int32
}

// DefaultSloanWeights returns Sloan's published defaults.
func DefaultSloanWeights() SloanWeights { return SloanWeights{W1: 1, W2: 2} }

// Sloan computes Sloan's profile-reduction ordering: a greedy numbering
// driven by a priority combining the global distance-to-end-vertex of a
// pseudo-diameter with the local wavefront growth. The paper's §4 closes by
// proposing exactly this kind of "limited use of a local reordering
// strategy" to improve spectral envelopes; the spectral–Sloan hybrid in
// internal/core uses this machinery with spectral positions as the global
// term. Kept beside SloanWS for envred.Sloan and perfbench.
func Sloan(g *graph.Graph) perm.Perm {
	ws := scratch.Get()
	defer scratch.Put(ws)
	return SloanWS(ws, g)
}

// SloanWS is Sloan with caller-provided scratch.
func SloanWS(ws *scratch.Workspace, g *graph.Graph) perm.Perm {
	w := DefaultSloanWeights()
	return overComponentsWS(ws, g, func(ws *scratch.Workspace, sub *graph.Graph, out []int32) []int32 {
		if sub.N() == 0 {
			return out
		}
		if sub.N() == 1 {
			return append(out, 0)
		}
		// Numbering starts at endpoint u of a pseudo-diameter; the global
		// priority term is the BFS distance to the far endpoint v, which is
		// exactly lsV.LevelOf (lsV is rooted at v).
		u, _, _, lsV := graph.PseudoDiameter(sub, 0)
		return sloanComponentInto(ws, sub, u, lsV.LevelOf, w, out)
	})
}

// Vertex states of Sloan's algorithm. Widened to int32 so the status array
// can live in a workspace's int32 arena.
const (
	sloanInactive  int32 = iota // far from the front
	sloanPreactive              // neighbor of an active/numbered vertex
	sloanActive                 // in the front (unnumbered, adjacent to numbered)
	sloanNumbered
)

type sloanItem struct {
	prio int32
	deg  int32
	v    int32
}

// sloanHeap is a typed max-heap on (priority, −degree, −label). It
// re-implements the sift operations of container/heap to avoid the
// interface boxing of heap.Push/Pop, which allocated once per push on the
// hottest loop of the algorithm.
type sloanHeap []sloanItem

func (h sloanHeap) less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio // max-heap on priority
	}
	if h[i].deg != h[j].deg {
		return h[i].deg < h[j].deg
	}
	return h[i].v < h[j].v
}

func (h *sloanHeap) push(it sloanItem) {
	*h = append(*h, it)
	// Sift up.
	s := *h
	j := len(s) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !s.less(j, parent) {
			break
		}
		s[j], s[parent] = s[parent], s[j]
		j = parent
	}
}

func (h *sloanHeap) pop() sloanItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s.less(l, smallest) {
			smallest = l
		}
		if r < len(s) && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// sloanComponentInto runs Sloan's numbering on a connected graph, appending
// to out. dist holds the global term (distance to the end vertex in classic
// Sloan; scaled spectral ranks in the hybrid); start is the first vertex
// numbered.
func sloanComponentInto(ws *scratch.Workspace, g *graph.Graph, start int, dist []int32, w SloanWeights, out []int32) []int32 {
	n := g.N()
	m := ws.Mark()
	defer ws.Release(m)
	status := ws.Int32s(n)
	// prio[v] = W1·dist[v] − W2·(cdeg(v)+1); cdeg decrements are folded in
	// as +W2 bumps, matching Sloan's published update rules.
	prio := ws.Int32s(n)
	for v := 0; v < n; v++ {
		status[v] = sloanInactive
		prio[v] = w.W1*dist[v] - w.W2*int32(g.Degree(v)+1)
	}
	first := len(out)
	h := make(sloanHeap, 0, n)

	push := func(v int32) {
		h.push(sloanItem{prio[v], int32(g.Degree(int(v))), v})
	}
	bump := func(v int32, delta int32) {
		prio[v] += delta
		if status[v] == sloanPreactive || status[v] == sloanActive {
			push(v)
		}
	}

	status[start] = sloanPreactive
	push(int32(start))
	for len(out)-first < n {
		// Pop the highest-priority pre-active/active vertex, skipping stale
		// entries.
		var v int32 = -1
		for len(h) > 0 {
			it := h.pop()
			if status[it.v] == sloanNumbered || prio[it.v] != it.prio {
				continue
			}
			v = it.v
			break
		}
		if v < 0 {
			break // disconnected remainder; callers order per component
		}
		if status[v] == sloanPreactive {
			// Numbering a pre-active vertex makes its neighbors pre-active
			// and bumps their priority (their current degree drops).
			for _, u := range g.Neighbors(int(v)) {
				if status[u] == sloanNumbered {
					continue
				}
				bump(u, w.W2)
				if status[u] == sloanInactive {
					status[u] = sloanPreactive
					push(u)
				}
			}
		}
		status[v] = sloanNumbered
		out = append(out, v)
		// Activate v's neighbors: a pre-active neighbor u becomes active;
		// u's neighbors get a priority bump and become at least pre-active.
		for _, u := range g.Neighbors(int(v)) {
			if status[u] != sloanPreactive {
				continue
			}
			status[u] = sloanActive
			bump(u, w.W2)
			for _, x := range g.Neighbors(int(u)) {
				if status[x] == sloanNumbered || x == v {
					continue
				}
				bump(x, w.W2)
				if status[x] == sloanInactive {
					status[x] = sloanPreactive
					push(x)
				}
			}
		}
	}
	return out
}

// SloanFromDiameterWS is Sloan's ordering of the connected graph g from a
// precomputed pseudo-diameter: start numbering at endpoint u with the BFS
// distances to the far endpoint (lsV.LevelOf for lsV rooted at v) as the
// global priority. distToEnd is read, never modified.
func SloanFromDiameterWS(ws *scratch.Workspace, g *graph.Graph, u int, distToEnd []int32) perm.Perm {
	n := g.N()
	if n == 0 {
		return perm.Perm{}
	}
	if n == 1 {
		return perm.Perm{0}
	}
	w := DefaultSloanWeights()
	return perm.Perm(sloanComponentInto(ws, g, u, distToEnd, w, make([]int32, 0, n)))
}

// SloanOrderWithGlobal exposes the Sloan numbering for a connected graph
// with an arbitrary global priority vector; the spectral–Sloan hybrid in
// internal/core is its consumer.
func SloanOrderWithGlobal(g *graph.Graph, start int, global []int32, w SloanWeights) ([]int32, bool) {
	if !graph.IsConnected(g) {
		return nil, false
	}
	ws := scratch.Get()
	defer scratch.Put(ws)
	return sloanComponentInto(ws, g, start, global, w, make([]int32, 0, g.N())), true
}
