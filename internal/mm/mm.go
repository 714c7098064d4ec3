// Package mm reads and writes sparse symmetric matrix patterns in the
// Matrix Market exchange format (coordinate, real/pattern/integer,
// symmetric). It lets the ordering pipeline run on the genuine
// Boeing–Harwell/NASA matrices when the user has them, in place of the
// bundled synthetic stand-ins.
//
// ReadGraph and ReadWeighted share one streaming scanner that parses
// entries in place without allocating. Lines end at '\n' and may be at
// most 1 MiB long; a trailing '\r' is whitespace. Entry fields are split
// on ASCII whitespace only (space, \t, \v, \f, \r), so Unicode spaces
// such as U+00A0 do not separate them. Pre-sizes taken from the size
// line's nnz are capped, so a forged nnz cannot make a small body
// allocate much, and a dimension past the int32 vertex range of
// graph.Graph fails with ErrTooLarge.
package mm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"

	"repro/internal/graph"
)

// ErrTooLarge reports a size line whose dimension exceeds the int32
// vertex index range of graph.Graph.
var ErrTooLarge = errors.New("mm: matrix dimension exceeds the int32 index range")

const (
	// maxLine bounds one line, and so the scanner's buffer.
	maxLine = 1 << 20
	// maxPresize caps the Builder's edge arrays (8 MiB) and
	// maxWeightPresize ReadWeighted's weight map (about 2 MiB) when they
	// are sized from the size line's nnz.
	maxPresize       = 1 << 20
	maxWeightPresize = 1 << 16
)

// asciiSpace marks the bytes that end a field; inlineSpace leaves out
// the '\n' that also ends the line.
var (
	asciiSpace  = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}
	inlineSpace = [256]bool{' ': true, '\t': true, '\v': true, '\f': true, '\r': true}
)

// scanner yields the lines of a Matrix Market body from one reusable
// buffer, which only grows for a line longer than it.
type scanner struct {
	r          io.Reader
	buf        []byte
	start, end int   // unread bytes are buf[start:end]
	err        error // sticky read error; io.EOF once r is drained
}

func newScanner(r io.Reader) *scanner {
	return &scanner{r: r, buf: make([]byte, 64<<10)}
}

// line returns the bounds of the next line in buf, without its '\n'; the
// bytes buf[lo:s.end] stay valid until the next call. A final line with
// no newline is returned at end of input, then io.EOF. Any other read
// error is returned once no complete line is buffered, so a cut-off
// stream never yields a partial last line.
func (s *scanner) line() (lo, hi int, err error) {
	for {
		if k := bytes.IndexByte(s.buf[s.start:s.end], '\n'); k >= 0 {
			lo, s.start = s.start, s.start+k+1
			return lo, lo + k, nil
		}
		if s.err == io.EOF && s.start < s.end {
			lo, s.start = s.start, s.end
			return lo, s.end, nil
		}
		if s.err != nil {
			return 0, 0, s.err
		}
		// Move the unread bytes to the front and read behind them,
		// doubling the buffer when a line fills it.
		s.end = copy(s.buf, s.buf[s.start:s.end])
		s.start = 0
		if s.end == len(s.buf) {
			if len(s.buf) >= maxLine {
				return 0, 0, fmt.Errorf("line longer than %d bytes", maxLine)
			}
			s.buf = append(s.buf, make([]byte, len(s.buf))...)
		}
		var n int
		n, s.err = s.r.Read(s.buf[s.end:])
		s.end += n
	}
}

// skipSpace returns the index of the first byte of b at or after i that
// is not whitespace inside a line, or len(b).
//
//envlint:noalloc
func skipSpace(b []byte, i int) int {
	for i < len(b) && inlineSpace[b[i]] {
		i++
	}
	return i
}

// fieldEnd returns the index just past the field starting at b[i].
//
//envlint:noalloc
func fieldEnd(b []byte, i int) int {
	for i < len(b) && !asciiSpace[b[i]] {
		i++
	}
	return i
}

// parseIndex parses the field starting at b[i] as a signed decimal int,
// with the syntax and range of strconv.Atoi, and returns it together
// with the index just past the field.
//
//envlint:noalloc
func parseIndex(b []byte, i int) (v, end int, ok bool) {
	if i+8 <= len(b) {
		// SWAR fast path for 1–7 digits followed by whitespace: mark the
		// non-digit bytes of the next eight, then convert the digits in
		// three multiply-shift steps (most significant digit first).
		x := binary.LittleEndian.Uint64(b[i:])
		nd := (x&0xF0F0F0F0F0F0F0F0 ^ 0x3030303030303030) |
			(x&0x0F0F0F0F0F0F0F0F+0x0606060606060606)&0xF0F0F0F0F0F0F0F0
		n := bits.TrailingZeros64((nd|(nd&0x7F7F7F7F7F7F7F7F+0x7F7F7F7F7F7F7F7F))&0x8080808080808080) >> 3
		if n > 0 && n < 8 && asciiSpace[b[i+n]] {
			x <<= 64 - 8*n
			x = (x & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
			x = (x & 0x00FF00FF00FF00FF) * 6553601 >> 16
			x = (x & 0x0000FFFF0000FFFF) * 42949672960001 >> 32
			return int(x), i + n, true
		}
	}
	neg := i < len(b) && b[i] == '-'
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			if asciiSpace[b[i]] {
				break
			}
			return 0, fieldEnd(b, i), false
		}
		// Up to 18 digits cannot overflow; past that, check.
		if i-start >= 18 && u > (math.MaxInt64+1-d)/10 {
			return 0, fieldEnd(b, i), false
		}
		u = 10*u + d
	}
	if i == start || !neg && u > math.MaxInt64 {
		return 0, i, false
	}
	if neg {
		return int(-u), i, true
	}
	return int(u), i, true
}

// header is the banner and size line both readers start with.
type header struct {
	valType string // real, integer, pattern or complex
	n, nnz  int
}

// readHeader reads and checks the banner and the size line.
func (s *scanner) readHeader() (header, error) {
	lo, hi, err := s.line()
	if err != nil {
		return header{}, fmt.Errorf("mm: reading header: %w", err)
	}
	banner := string(s.buf[lo:hi])
	fields := strings.Fields(strings.ToLower(banner))
	if len(fields) < 4 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return header{}, fmt.Errorf("mm: not a Matrix Market file: %q", strings.TrimSpace(banner))
	}
	if fields[2] != "coordinate" {
		return header{}, fmt.Errorf("mm: only coordinate format supported, got %q", fields[2])
	}
	h := header{valType: fields[3]}
	switch h.valType {
	case "real", "integer", "pattern", "complex":
	default:
		return header{}, fmt.Errorf("mm: unknown value type %q", h.valType)
	}
	for {
		if lo, hi, err = s.line(); err != nil {
			return header{}, fmt.Errorf("mm: missing size line: %w", err)
		}
		if k := skipSpace(s.buf[:hi], lo); k < hi && s.buf[k] != '%' {
			break
		}
	}
	size := string(bytes.TrimSpace(s.buf[lo:hi]))
	var cols int
	if _, err := fmt.Sscan(size, &h.n, &cols, &h.nnz); err != nil {
		return header{}, fmt.Errorf("mm: bad size line %q: %w", size, err)
	}
	switch {
	case h.n != cols:
		return header{}, fmt.Errorf("mm: matrix is %dx%d, want square", h.n, cols)
	case h.n < 0 || h.nnz < 0:
		return header{}, fmt.Errorf("mm: negative dimensions")
	case h.n > math.MaxInt32:
		return header{}, fmt.Errorf("%w: %d rows", ErrTooLarge, h.n)
	}
	return h, nil
}

// entry reads the next entry line, skipping blank and comment lines, and
// returns its 1-based indices, checked against h.n, and the rest of the
// line, where any values are. read counts the entries before this one.
func (s *scanner) entry(h header, read int) (int, int, []byte, error) {
	for {
		// Fast path: a line of two in-range indices parsed where it lies,
		// with its '\n' buffered, skips line()'s separate pass. Comments,
		// blank, malformed and cut-off lines take the general path below.
		b := s.buf[s.start:s.end]
		i, ie, ok1 := parseIndex(b, skipSpace(b, 0))
		j, je, ok2 := parseIndex(b, skipSpace(b, ie))
		if e := skipSpace(b, je); ok1 && ok2 && e < len(b) && i >= 1 && i <= h.n && j >= 1 && j <= h.n {
			if b[e] != '\n' {
				e = bytes.IndexByte(b, '\n') // values follow
			}
			if e >= 0 {
				s.start += e + 1
				return i, j, b[je:e], nil
			}
		}

		lo, hi, err := s.line()
		if err == io.EOF {
			return 0, 0, nil, fmt.Errorf("mm: expected %d entries, got %d (truncated file?)", h.nnz, read)
		} else if err != nil {
			return 0, 0, nil, fmt.Errorf("mm: %w", err)
		}
		// Indices are parsed in b, which runs on past the line's '\n' so
		// parseIndex can load eight bytes at a time; the '\n' stops it.
		b, ln := s.buf[lo:s.end], s.buf[lo:hi]
		a := skipSpace(ln, 0)
		if a == len(ln) || ln[a] == '%' {
			continue
		}
		i, ie, ok1 = parseIndex(b, a)
		c := skipSpace(ln, ie)
		if c == len(ln) {
			return 0, 0, nil, fmt.Errorf("mm: bad entry line %q", bytes.TrimSpace(ln))
		}
		j, je, ok2 = parseIndex(b, c)
		if !ok1 || !ok2 {
			return 0, 0, nil, fmt.Errorf("mm: bad indices in %q", bytes.TrimSpace(ln))
		}
		if i < 1 || i > h.n || j < 1 || j > h.n {
			return 0, 0, nil, fmt.Errorf("mm: entry (%d,%d) out of range [1,%d]", i, j, h.n)
		}
		return i, j, ln[je:], nil
	}
}

// ReadGraph parses a Matrix Market file and returns the adjacency graph of
// the matrix pattern: off-diagonal entries become edges (values, if
// present, are ignored); diagonal entries are dropped (the envelope
// definitions assume a full nonzero diagonal anyway). The matrix must be
// square and declared symmetric (or skew-symmetric/hermitian, which share
// the one-triangle storage convention); "general" matrices are accepted and
// symmetrized.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	s := newScanner(r)
	h, err := s.readHeader()
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(h.n)
	b.Grow(min(h.nnz, maxPresize))
	for read := 0; read < h.nnz; read++ {
		i, j, _, err := s.entry(h, read)
		if err != nil {
			return nil, err
		}
		if i != j {
			b.AddEdge(i-1, j-1)
		}
	}
	return b.Build(), nil
}

// WriteGraph writes the graph's pattern as a Matrix Market symmetric
// pattern matrix (lower triangle plus the implicit unit diagonal, matching
// the envelope convention of nonzero diagonals).
func WriteGraph(w io.Writer, g *graph.Graph) error {
	// bufio.Writer errors are sticky: Flush reports the first one.
	bw := bufio.NewWriter(w)
	n := g.N()
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern symmetric\n")
	fmt.Fprintf(bw, "%% generated by repro (spectral envelope reduction)\n")
	fmt.Fprintf(bw, "%d %d %d\n", n, n, g.M()+n)
	for v := 0; v < n; v++ {
		fmt.Fprintf(bw, "%d %d\n", v+1, v+1)
		for _, u := range g.Neighbors(v) {
			if int(u) < v { // store lower triangle: row v, col u < v
				fmt.Fprintf(bw, "%d %d\n", v+1, u+1)
			}
		}
	}
	return bw.Flush()
}
