package mm

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/graph"
)

// ReadWeighted parses a Matrix Market coordinate file keeping the entry
// magnitudes: it returns the pattern graph together with a symmetric
// weight function weight(u,v) = |a_uv| suitable for the weighted spectral
// ordering (core.WeightedSpectral). Pattern files get unit weights; when
// an edge is stored more than once (duplicates, or a_uv and a_vu of a
// "general" matrix) the largest magnitude wins. Zero-valued stored entries
// receive the smallest positive stored magnitude so the weight function
// stays positive on the pattern.
func ReadWeighted(r io.Reader) (*graph.Graph, func(u, v int) float64, error) {
	s := newScanner(r)
	h, err := s.readHeader()
	if err != nil {
		return nil, nil, err
	}
	hasValues := h.valType != "pattern"

	weights := newEdgeWeights(min(h.nnz, maxWeightPresize))
	b := graph.NewBuilder(h.n)
	b.Grow(min(h.nnz, maxPresize))
	for read := 0; read < h.nnz; read++ {
		i, j, rest, err := s.entry(h, read)
		if err != nil {
			return nil, nil, err
		}
		w := 1.0
		if hasValues {
			re := skipSpace(rest, 0)
			if re == len(rest) {
				return nil, nil, fmt.Errorf("mm: missing value in entry (%d,%d)", i, j)
			}
			ree := fieldEnd(rest, re)
			v, err := strconv.ParseFloat(string(rest[re:ree]), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("mm: bad value in entry (%d,%d): %w", i, j, err)
			}
			w = math.Abs(v)
			if im := skipSpace(rest, ree); h.valType == "complex" && im < len(rest) {
				imv, err := strconv.ParseFloat(string(rest[im:fieldEnd(rest, im)]), 64)
				if err != nil {
					return nil, nil, fmt.Errorf("mm: bad imaginary part in entry (%d,%d): %w", i, j, err)
				}
				w = math.Hypot(v, imv)
			}
		}
		if i != j {
			b.AddEdge(i-1, j-1)
			weights.add(i-1, j-1, w)
		}
	}
	return b.Build(), weights.fn(), nil
}

// edgeWeights keeps the largest magnitude stored for each undirected edge
// and the smallest positive one overall, which edges stored only as zero
// fall back to so the weight function stays positive on the pattern.
type edgeWeights struct {
	m      map[int64]float64
	minPos float64
}

func newEdgeWeights(hint int) *edgeWeights {
	return &edgeWeights{m: make(map[int64]float64, hint), minPos: math.Inf(1)}
}

func edgeKey(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// add records magnitude w for the edge {u,v}.
func (e *edgeWeights) add(u, v int, w float64) {
	if k := edgeKey(u, v); w > e.m[k] {
		e.m[k] = w
	}
	if w > 0 && w < e.minPos {
		e.minPos = w
	}
}

// fn returns the symmetric weight function over the recorded edges.
func (e *edgeWeights) fn() func(u, v int) float64 {
	minPos := e.minPos
	if math.IsInf(minPos, 1) {
		minPos = 1
	}
	return func(u, v int) float64 {
		if w := e.m[edgeKey(u, v)]; w > 0 {
			return w
		}
		return minPos
	}
}
