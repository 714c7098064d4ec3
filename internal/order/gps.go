package order

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/scratch"
)

// GPS computes the Gibbs–Poole–Stockmeyer ordering: pseudo-diameter, level
// structure combination, then Cuthill–McKee-style numbering level by level
// within the combined structure, followed by reversal (which preserves
// bandwidth and never hurts the envelope). GPS is the bandwidth champion in
// the paper's tables.
func GPS(g *graph.Graph) perm.Perm {
	ws := scratch.Get()
	defer scratch.Put(ws)
	return overComponentsWS(ws, g, gpsComponentInto)
}

func gpsComponentInto(_ *scratch.Workspace, g *graph.Graph, out []int32) []int32 {
	switch g.N() {
	case 0:
		return out
	case 1:
		return append(out, 0)
	}
	return append(out, gpsNumber(g, diameterAndCombine(g))...)
}

func gpsNumber(g *graph.Graph, c *combined) []int32 {
	order := numberByAdjacency(g, c)
	reverse(order)
	return order
}

// GPSFromDiameter is the GPS ordering of the connected graph g built on a
// precomputed pseudo-diameter (u, v, lsU, lsV) — the artifact the portfolio
// pipeline caches per component so GPS, GK and Sloan share one
// pseudo-diameter search. The level structures are read, never modified.
func GPSFromDiameter(g *graph.Graph, u, v int, lsU, lsV *graph.LevelStructure) perm.Perm {
	if g.N() == 1 {
		return perm.Perm{0}
	}
	return perm.Perm(gpsNumber(g, combineLevelStructures(g, u, v, lsU, lsV)))
}

// numberByAdjacency is the GPS numbering pass (GPS 1976, step III,
// simplified tie-breaking): process the combined levels consecutively;
// within a level, first number unnumbered vertices adjacent to
// already-numbered vertices of the previous level in the order those were
// numbered (each batch sorted by increasing degree), then vertices adjacent
// to numbered vertices of the current level, and when the level is
// exhausted of connected candidates, seed with its minimum-degree
// unnumbered vertex.
func numberByAdjacency(g *graph.Graph, c *combined) []int32 {
	n := g.N()
	numbered := make([]bool, n)
	order := make([]int32, 0, n)
	byDeg := func(buf []int32) {
		sort.Slice(buf, func(i, j int) bool {
			di, dj := g.Degree(int(buf[i])), g.Degree(int(buf[j]))
			if di != dj {
				return di < dj
			}
			return buf[i] < buf[j]
		})
	}

	levelStart := 0 // index in order where the previous level began
	var buf []int32
	for l := 0; l < c.k; l++ {
		curStart := len(order)
		if l == 0 {
			order = append(order, int32(c.start))
			numbered[c.start] = true
		} else {
			// Seed from the previous level's numbered vertices in order.
			for idx := levelStart; idx < curStart; idx++ {
				v := order[idx]
				buf = buf[:0]
				for _, w := range g.Neighbors(int(v)) {
					if !numbered[w] && c.levelOf[w] == int32(l) {
						numbered[w] = true
						buf = append(buf, w)
					}
				}
				byDeg(buf)
				order = append(order, buf...)
			}
		}
		// Sweep within the level until all its vertices are numbered.
		for {
			progressed := false
			for idx := curStart; idx < len(order); idx++ {
				v := order[idx]
				buf = buf[:0]
				for _, w := range g.Neighbors(int(v)) {
					if !numbered[w] && c.levelOf[w] == int32(l) {
						numbered[w] = true
						buf = append(buf, w)
					}
				}
				if len(buf) > 0 {
					byDeg(buf)
					order = append(order, buf...)
					progressed = true
				}
			}
			// Any vertices of this level left (disconnected inside the
			// level)? Seed with a minimum-degree one.
			var seed int32 = -1
			for _, w := range c.levels[l] {
				if !numbered[w] && (seed < 0 || g.Degree(int(w)) < g.Degree(int(seed))) {
					seed = w
				}
			}
			if seed >= 0 {
				numbered[seed] = true
				order = append(order, seed)
				progressed = true
			}
			if !progressed {
				break
			}
			// Check completion of the level.
			done := true
			for _, w := range c.levels[l] {
				if !numbered[w] {
					done = false
					break
				}
			}
			if done {
				break
			}
		}
		levelStart = curStart
	}
	return order
}
