// Package order implements the local-search (breadth-first) envelope and
// bandwidth reduction orderings the paper compares against: Cuthill–McKee
// and reverse Cuthill–McKee (the SPARSPAK baseline), Gibbs–Poole–Stockmeyer
// (GPS), Gibbs–King (GK), King's ordering, and — as the paper's proposed
// "local reordering strategy" extension — Sloan's algorithm.
//
// All algorithms handle disconnected graphs by ordering components
// independently (largest first, matching internal/graph.Components) and
// concatenating. All return permutations in the repository's new→old
// convention.
//
// Every whole-graph ordering runs its components through one
// workspace-threaded loop, overComponentsWS, so component extraction and
// the BFS bookkeeping run off reusable arenas. CuthillMcKee, RCM and Sloan also
// come as *WS variants taking the caller's scratch.Workspace, which the
// pipeline calls; their plain forms stay because the public envred API
// re-exports them and perfbench imports RCM and Sloan.
package order

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// overComponentsWS runs a per-component ordering function over every
// connected component of g and concatenates the results: f appends its
// component ordering (new→old, in component-local labels) to out and
// returns the extended slice; labels are translated to g's in place
// afterwards. Component subgraphs are extracted into one reused buffer, so
// f must not retain its argument.
func overComponentsWS(ws *scratch.Workspace, g *graph.Graph, f func(ws *scratch.Workspace, sub *graph.Graph, out []int32) []int32) perm.Perm {
	n := g.N()
	out := make([]int32, 0, n)
	if graph.IsConnected(g) {
		return perm.Perm(f(ws, g, out))
	}
	var sub graph.Graph
	for _, comp := range graph.Components(g) {
		start := len(out)
		g.SubgraphInto(ws, &sub, comp)
		out = f(ws, &sub, out)
		for i := start; i < len(out); i++ {
			out[i] = int32(comp[out[i]])
		}
	}
	return perm.Perm(out)
}

// cmComponentInto appends the Cuthill–McKee ordering of a connected graph
// to out: start from a pseudo-peripheral vertex; number vertices level by
// level, visiting each numbered vertex's unnumbered neighbors in order of
// increasing degree (ties by label). The result is an adjacency ordering
// (§2.4 of the paper).
func cmComponentInto(ws *scratch.Workspace, g *graph.Graph, out []int32) []int32 {
	if g.N() == 0 {
		return out
	}
	root, _ := graph.PseudoPeripheral(g, 0)
	return cmRootedInto(ws, g, root, out)
}

// cmRootedInto is the Cuthill–McKee numbering from a given root (the
// second half of cmComponentInto, split so callers with a cached
// pseudo-peripheral vertex skip the peripheral search).
func cmRootedInto(ws *scratch.Workspace, g *graph.Graph, root int, out []int32) []int32 {
	n := g.N()
	m := ws.Mark()
	defer ws.Release(m)
	numbered := ws.Bools(n)
	buf := ws.Int32s(n)
	head := len(out)
	out = append(out, int32(root))
	numbered[root] = true
	for ; head < len(out); head++ {
		v := out[head]
		k := 0
		for _, w := range g.Neighbors(int(v)) {
			if !numbered[w] {
				buf[k] = w
				k++
				numbered[w] = true
			}
		}
		slices.SortFunc(buf[:k], func(a, b int32) int {
			if da, db := g.Degree(int(a)), g.Degree(int(b)); da != db {
				return da - db
			}
			return int(a - b)
		})
		out = append(out, buf[:k]...)
	}
	return out
}

// CuthillMcKee returns the Cuthill–McKee ordering of g.
// Kept beside CuthillMcKeeWS for envred.CuthillMcKee.
func CuthillMcKee(g *graph.Graph) perm.Perm {
	ws := scratch.Get()
	defer scratch.Put(ws)
	return CuthillMcKeeWS(ws, g)
}

// CuthillMcKeeWS is CuthillMcKee with caller-provided scratch.
func CuthillMcKeeWS(ws *scratch.Workspace, g *graph.Graph) perm.Perm {
	return overComponentsWS(ws, g, cmComponentInto)
}

// RCM returns the reverse Cuthill–McKee ordering — the SPARSPAK standard
// the paper benchmarks. Reversal leaves the bandwidth unchanged but never
// increases (and usually shrinks) the envelope (Liu & Sherman 1976).
// Kept beside RCMWS for envred.RCM and perfbench.
func RCM(g *graph.Graph) perm.Perm {
	ws := scratch.Get()
	defer scratch.Put(ws)
	return RCMWS(ws, g)
}

// RCMWS is RCM with caller-provided scratch.
func RCMWS(ws *scratch.Workspace, g *graph.Graph) perm.Perm {
	return overComponentsWS(ws, g, func(ws *scratch.Workspace, sub *graph.Graph, out []int32) []int32 {
		start := len(out)
		out = cmComponentInto(ws, sub, out)
		reverse(out[start:])
		return out
	})
}

// CuthillMcKeeFromRootWS is the Cuthill–McKee ordering of the connected
// graph g started at a precomputed pseudo-peripheral root — the artifact
// the portfolio pipeline caches per component so racing CM, RCM and King
// pays for one George–Liu search, not three.
func CuthillMcKeeFromRootWS(ws *scratch.Workspace, g *graph.Graph, root int) perm.Perm {
	return perm.Perm(cmRootedInto(ws, g, root, make([]int32, 0, g.N())))
}

// RCMFromRootWS is the reverse Cuthill–McKee ordering of the connected
// graph g from a precomputed pseudo-peripheral root.
func RCMFromRootWS(ws *scratch.Workspace, g *graph.Graph, root int) perm.Perm {
	o := cmRootedInto(ws, g, root, make([]int32, 0, g.N()))
	reverse(o)
	return perm.Perm(o)
}

// reverse flips a slice in place.
func reverse(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
