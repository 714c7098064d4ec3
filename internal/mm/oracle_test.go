package mm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// This file keeps the strings-based Matrix Market readers the byte
// scanner replaced — bufio.Scanner lines, strings.Fields, strconv.Atoi —
// as the differential oracle of the fuzz targets. Three deliberate fixes
// separate it from the readers it was copied from, so that it specifies
// the intended behaviour rather than the bugs: the weighted reader
// rejects negative dimensions (it used to panic) and unknown value types,
// both reject dimensions past the int32 vertex range, and the weight map
// is not pre-sized from the untrusted nnz.

type oracleLineReader struct {
	sc *bufio.Scanner
}

func newOracleLineReader(r io.Reader) *oracleLineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &oracleLineReader{sc: sc}
}

func (lr *oracleLineReader) next() (string, error) {
	if lr.sc.Scan() {
		return lr.sc.Text(), nil
	}
	if err := lr.sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// oracleHeader reads the banner and size line.
func oracleHeader(lr *oracleLineReader) (valType string, rows, nnz int, err error) {
	header, err := lr.next()
	if err != nil {
		return "", 0, 0, fmt.Errorf("mm: reading header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 4 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return "", 0, 0, fmt.Errorf("mm: not a Matrix Market file: %q", strings.TrimSpace(header))
	}
	if fields[2] != "coordinate" {
		return "", 0, 0, fmt.Errorf("mm: only coordinate format supported, got %q", fields[2])
	}
	valType = fields[3]
	switch valType {
	case "real", "integer", "pattern", "complex":
	default:
		return "", 0, 0, fmt.Errorf("mm: unknown value type %q", valType)
	}
	var sizeLine string
	for {
		line, err := lr.next()
		if err != nil {
			return "", 0, 0, fmt.Errorf("mm: missing size line: %w", err)
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		sizeLine = t
		break
	}
	var cols int
	if _, err := fmt.Sscan(sizeLine, &rows, &cols, &nnz); err != nil {
		return "", 0, 0, fmt.Errorf("mm: bad size line %q: %w", sizeLine, err)
	}
	if rows != cols {
		return "", 0, 0, fmt.Errorf("mm: matrix is %dx%d, want square", rows, cols)
	}
	if rows < 0 || nnz < 0 {
		return "", 0, 0, fmt.Errorf("mm: negative dimensions")
	}
	if rows > math.MaxInt32 {
		return "", 0, 0, ErrTooLarge
	}
	return valType, rows, nnz, nil
}

// oracleEntry reads the next entry line's fields and checked indices.
func oracleEntry(lr *oracleLineReader, rows, nnz, read int) (i, j int, f []string, err error) {
	for {
		line, err := lr.next()
		if err != nil {
			if err == io.EOF {
				return 0, 0, nil, fmt.Errorf("mm: expected %d entries, got %d (truncated file?)", nnz, read)
			}
			return 0, 0, nil, fmt.Errorf("mm: %w", err)
		}
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		f := strings.Fields(t)
		if len(f) < 2 {
			return 0, 0, nil, fmt.Errorf("mm: bad entry line %q", t)
		}
		i, err1 := strconv.Atoi(f[0])
		j, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return 0, 0, nil, fmt.Errorf("mm: bad indices in %q", t)
		}
		if i < 1 || i > rows || j < 1 || j > rows {
			return 0, 0, nil, fmt.Errorf("mm: entry (%d,%d) out of range [1,%d]", i, j, rows)
		}
		return i, j, f, nil
	}
}

func oracleReadGraph(r io.Reader) (*graph.Graph, error) {
	lr := newOracleLineReader(r)
	_, rows, nnz, err := oracleHeader(lr)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(rows)
	for read := 0; read < nnz; read++ {
		i, j, _, err := oracleEntry(lr, rows, nnz, read)
		if err != nil {
			return nil, err
		}
		if i != j {
			b.AddEdge(i-1, j-1)
		}
	}
	return b.Build(), nil
}

func oracleReadWeighted(r io.Reader) (*graph.Graph, func(u, v int) float64, error) {
	lr := newOracleLineReader(r)
	valType, rows, nnz, err := oracleHeader(lr)
	if err != nil {
		return nil, nil, err
	}
	hasValues := valType == "real" || valType == "integer" || valType == "complex"
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	weights := make(map[int64]float64)
	b := graph.NewBuilder(rows)
	minPos := math.Inf(1)
	for read := 0; read < nnz; read++ {
		i, j, f, err := oracleEntry(lr, rows, nnz, read)
		if err != nil {
			return nil, nil, err
		}
		w := 1.0
		if hasValues {
			if len(f) < 3 {
				return nil, nil, fmt.Errorf("mm: missing value in %q", f)
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("mm: bad value in %q: %w", f, err)
			}
			w = math.Abs(v)
			if valType == "complex" && len(f) >= 4 {
				im, err := strconv.ParseFloat(f[3], 64)
				if err != nil {
					return nil, nil, fmt.Errorf("mm: bad imaginary part in %q: %w", f, err)
				}
				w = math.Hypot(v, im)
			}
		}
		if i != j {
			b.AddEdge(i-1, j-1)
			k := key(i-1, j-1)
			if w > weights[k] {
				weights[k] = w
			}
			if w > 0 && w < minPos {
				minPos = w
			}
		}
	}
	if math.IsInf(minPos, 1) {
		minPos = 1
	}
	g := b.Build()
	weight := func(u, v int) float64 {
		if w := weights[key(u, v)]; w > 0 {
			return w
		}
		return minPos
	}
	return g, weight, nil
}
