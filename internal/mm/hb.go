package mm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// This file reads the Harwell–Boeing exchange format — the fixed-column
// FORTRAN format in which the paper's Boeing–Harwell test matrices
// (BCSSTK13/29/30/31/32/33, CAN1072, …) were actually distributed. With it,
// users holding the original collection can run the pipeline on the exact
// matrices of Tables 4.1–4.2.

// fortranFormat describes one repeated fixed-width numeric field, parsed
// from descriptors such as "(13I6)", "(4E20.12)" or "(1P5D16.8)".
type fortranFormat struct {
	perLine int
	width   int
}

var fortranFormatRE = regexp.MustCompile(`^\(\s*(?:\d+\s*P\s*,?\s*)?(\d*)\s*[IiEeFfDdGg]\s*(\d+)(?:\.\d+)?\s*\)$`)

func parseFortranFormat(s string) (fortranFormat, error) {
	m := fortranFormatRE.FindStringSubmatch(strings.TrimSpace(s))
	if m == nil {
		return fortranFormat{}, fmt.Errorf("mm: unsupported FORTRAN format %q", s)
	}
	per := 1
	if m[1] != "" {
		v, err := strconv.Atoi(m[1])
		if err != nil || v < 1 {
			return fortranFormat{}, fmt.Errorf("mm: bad repeat in format %q", s)
		}
		per = v
	}
	w, err := strconv.Atoi(m[2])
	if err != nil || w < 1 {
		return fortranFormat{}, fmt.Errorf("mm: bad width in format %q", s)
	}
	return fortranFormat{perLine: per, width: w}, nil
}

// readFixed reads count fixed-width fields laid out f.perLine per card.
func readFixed(br *bufio.Reader, f fortranFormat, count int) ([]string, error) {
	// count comes from the header; grow past a small preallocation only as
	// fields actually arrive, so a forged count cannot force the allocation.
	out := make([]string, 0, min(count, 4096))
	for len(out) < count {
		line, err := br.ReadString('\n')
		if line == "" && err != nil {
			return nil, fmt.Errorf("mm: unexpected end of HB data: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		for i := 0; i < f.perLine && len(out) < count; i++ {
			lo := i * f.width
			if lo >= len(line) {
				break
			}
			hi := lo + f.width
			if hi > len(line) {
				hi = len(line)
			}
			field := strings.TrimSpace(line[lo:hi])
			if field == "" {
				continue
			}
			out = append(out, field)
		}
		if err != nil && len(out) < count {
			return nil, fmt.Errorf("mm: HB data truncated (%d of %d fields)", len(out), count)
		}
	}
	return out, nil
}

// fortranFloat converts FORTRAN literals (D exponents, missing 'E') to Go
// floats.
func fortranFloat(s string) (float64, error) {
	s = strings.ReplaceAll(strings.ReplaceAll(s, "D", "E"), "d", "e")
	// Handle "1.23+05" style (exponent without letter).
	if i := strings.LastIndexAny(s, "+-"); i > 0 && s[i-1] != 'e' && s[i-1] != 'E' {
		s = s[:i] + "e" + s[i:]
	}
	return strconv.ParseFloat(s, 64)
}

// ReadHarwellBoeing parses a Harwell–Boeing file and returns the adjacency
// graph of the matrix pattern together with a positive symmetric weight
// function (unit weights for pattern matrices), exactly as ReadWeighted
// does for Matrix Market files. Supported types: assembled (x-x-A) real,
// pattern and complex matrices, symmetric or general (symmetrized);
// elemental matrices are rejected.
func ReadHarwellBoeing(r io.Reader) (*graph.Graph, func(u, v int) float64, error) {
	br := bufio.NewReader(r)
	card := func() (string, error) {
		line, err := br.ReadString('\n')
		if line == "" && err != nil {
			return "", fmt.Errorf("mm: truncated HB header: %w", err)
		}
		return strings.TrimRight(line, "\r\n"), nil
	}
	// Card 1: title/key — ignored.
	if _, err := card(); err != nil {
		return nil, nil, err
	}
	// Card 2: card counts.
	l2, err := card()
	if err != nil {
		return nil, nil, err
	}
	var totcrd, ptrcrd, indcrd, valcrd, rhscrd int
	n2, _ := fmt.Sscan(l2, &totcrd, &ptrcrd, &indcrd, &valcrd, &rhscrd)
	if n2 < 4 {
		return nil, nil, fmt.Errorf("mm: bad HB card-count line %q", l2)
	}
	// Card 3: type and dimensions.
	l3, err := card()
	if err != nil {
		return nil, nil, err
	}
	if len(l3) < 3 {
		return nil, nil, fmt.Errorf("mm: bad HB type line %q", l3)
	}
	mxtype := strings.ToUpper(strings.TrimSpace(l3[:3]))
	rest := strings.Fields(l3[3:])
	if len(rest) < 3 {
		return nil, nil, fmt.Errorf("mm: bad HB dimension line %q", l3)
	}
	nrow, err1 := strconv.Atoi(rest[0])
	ncol, err2 := strconv.Atoi(rest[1])
	nnz, err3 := strconv.Atoi(rest[2])
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, nil, fmt.Errorf("mm: bad HB dimensions in %q", l3)
	}
	if nrow < 0 || ncol < 0 || nnz < 0 {
		return nil, nil, fmt.Errorf("mm: negative HB dimensions in %q", l3)
	}
	if nrow != ncol {
		return nil, nil, fmt.Errorf("mm: HB matrix is %dx%d, want square", nrow, ncol)
	}
	if len(mxtype) != 3 || mxtype[2] == 'E' {
		return nil, nil, fmt.Errorf("mm: unsupported HB type %q (elemental or malformed)", mxtype)
	}
	valued := mxtype[0] == 'R' || mxtype[0] == 'C'
	complexVals := mxtype[0] == 'C'
	// Card 4: formats.
	l4, err := card()
	if err != nil {
		return nil, nil, err
	}
	ff := strings.Fields(l4)
	if len(ff) < 2 {
		return nil, nil, fmt.Errorf("mm: bad HB format line %q", l4)
	}
	ptrFmt, err := parseFortranFormat(ff[0])
	if err != nil {
		return nil, nil, err
	}
	indFmt, err := parseFortranFormat(ff[1])
	if err != nil {
		return nil, nil, err
	}
	var valFmt fortranFormat
	if valued && valcrd > 0 {
		if len(ff) < 3 {
			return nil, nil, fmt.Errorf("mm: missing value format in %q", l4)
		}
		valFmt, err = parseFortranFormat(ff[2])
		if err != nil {
			return nil, nil, err
		}
	}
	// Card 5 (optional): RHS descriptor.
	if rhscrd > 0 {
		if _, err := card(); err != nil {
			return nil, nil, err
		}
	}

	colPtrS, err := readFixed(br, ptrFmt, ncol+1)
	if err != nil {
		return nil, nil, err
	}
	rowIndS, err := readFixed(br, indFmt, nnz)
	if err != nil {
		return nil, nil, err
	}
	colPtr := make([]int, ncol+1)
	for i, s := range colPtrS {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, nil, fmt.Errorf("mm: bad HB pointer %q", s)
		}
		if (i > 0 && v < colPtr[i-1]) || v > nnz+1 {
			return nil, nil, fmt.Errorf("mm: HB pointer %d of column %d decreases or exceeds nnz+1 = %d", v, i+1, nnz+1)
		}
		colPtr[i] = v
	}
	if colPtr[0] != 1 || colPtr[ncol]-1 != nnz {
		return nil, nil, fmt.Errorf("mm: inconsistent HB pointers (first %d, last %d, nnz %d)",
			colPtr[0], colPtr[ncol], nnz)
	}
	vals := make([]float64, nnz)
	for i := range vals {
		vals[i] = 1
	}
	if valued && valcrd > 0 {
		want := nnz
		if complexVals {
			want = 2 * nnz
		}
		valS, err := readFixed(br, valFmt, want)
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < nnz; i++ {
			if complexVals {
				re, err1 := fortranFloat(valS[2*i])
				im, err2 := fortranFloat(valS[2*i+1])
				if err1 != nil || err2 != nil {
					return nil, nil, fmt.Errorf("mm: bad HB complex value at %d", i)
				}
				vals[i] = math.Hypot(re, im)
			} else {
				v, err := fortranFloat(valS[i])
				if err != nil {
					return nil, nil, fmt.Errorf("mm: bad HB value %q", valS[i])
				}
				vals[i] = math.Abs(v)
			}
		}
	}

	weights := newEdgeWeights(0)
	b := graph.NewBuilder(nrow)
	idx := 0
	for col := 0; col < ncol; col++ {
		for p := colPtr[col]; p < colPtr[col+1]; p++ {
			rs := rowIndS[idx]
			idx++
			row, err := strconv.Atoi(rs)
			if err != nil || row < 1 || row > nrow {
				return nil, nil, fmt.Errorf("mm: bad HB row index %q in column %d", rs, col+1)
			}
			if row-1 == col {
				continue
			}
			b.AddEdge(row-1, col)
			weights.add(row-1, col, vals[p-1])
		}
	}
	return b.Build(), weights.fn(), nil
}
