package mm

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/graph"
)

const robustBody = `%%MatrixMarket matrix coordinate real symmetric
% a comment line
4 4 4
2 1 1.5
3 2 -2.0
4 3 0.5
4 4 9.0
`

// Every reader must accept CRLF line endings — files prepared on Windows —
// and files whose final line is not newline-terminated.
func TestReadersTolerateCRLFAndMissingFinalNewline(t *testing.T) {
	variants := map[string]string{
		"unix":              robustBody,
		"crlf":              strings.ReplaceAll(robustBody, "\n", "\r\n"),
		"no final newline":  strings.TrimSuffix(robustBody, "\n"),
		"crlf, no final nl": strings.TrimSuffix(strings.ReplaceAll(robustBody, "\n", "\r\n"), "\r\n"),
	}
	for name, body := range variants {
		g, err := ReadGraph(strings.NewReader(body))
		if err != nil {
			t.Fatalf("ReadGraph(%s): %v", name, err)
		}
		if g.N() != 4 || g.M() != 3 {
			t.Fatalf("ReadGraph(%s): n=%d m=%d, want 4/3", name, g.N(), g.M())
		}
		gw, weight, err := ReadWeighted(strings.NewReader(body))
		if err != nil {
			t.Fatalf("ReadWeighted(%s): %v", name, err)
		}
		if gw.N() != 4 || gw.M() != 3 {
			t.Fatalf("ReadWeighted(%s): n=%d m=%d, want 4/3", name, gw.N(), gw.M())
		}
		if w := weight(1, 0); w != 1.5 {
			t.Fatalf("ReadWeighted(%s): weight(1,0) = %v, want 1.5", name, w)
		}
		if w := weight(2, 1); w != 2.0 {
			t.Fatalf("ReadWeighted(%s): weight(2,1) = %v, want |−2.0|", name, w)
		}
	}
}

// A file that declares more entries than it contains must fail with a
// truncation error, not hang or succeed silently.
func TestReadersRejectTruncatedFile(t *testing.T) {
	truncated := `%%MatrixMarket matrix coordinate pattern symmetric
5 5 10
2 1
3 1
`
	if _, err := ReadGraph(strings.NewReader(truncated)); err == nil {
		t.Fatal("ReadGraph accepted a truncated file")
	} else if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "expected") {
		t.Fatalf("ReadGraph truncation error unhelpful: %v", err)
	}
	if _, _, err := ReadWeighted(strings.NewReader(truncated)); err == nil {
		t.Fatal("ReadWeighted accepted a truncated file")
	}
	// Truncation right after the size line, without a trailing newline.
	if _, err := ReadGraph(strings.NewReader("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2")); err == nil {
		t.Fatal("ReadGraph accepted a file with no entries for nnz=2")
	}
	// Truncation before the size line.
	if _, err := ReadGraph(strings.NewReader("%%MatrixMarket matrix coordinate pattern symmetric\n% only comments")); err == nil {
		t.Fatal("ReadGraph accepted a file with no size line")
	}
}

// CRLF must also survive a WriteGraph → ReadGraph round trip when the
// written bytes are re-encoded with Windows line endings.
func TestRoundTripThroughCRLF(t *testing.T) {
	g, err := ReadGraph(strings.NewReader(robustBody))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteGraph(&sb, g); err != nil {
		t.Fatal(err)
	}
	crlf := strings.ReplaceAll(sb.String(), "\n", "\r\n")
	g2, err := ReadGraph(strings.NewReader(crlf))
	if err != nil {
		t.Fatalf("re-reading CRLF-encoded output: %v", err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g2.N(), g2.M(), g.N(), g.M())
	}
}

// A size line declaring a billion entries over a tiny body must fail as
// truncated without allocating for the declared count: pre-sizes taken
// from nnz are capped.
func TestForgedNNZAllocatesLittle(t *testing.T) {
	const body = "%%MatrixMarket matrix coordinate real symmetric\n3 3 1000000000\n2 1 1.0\n"
	readers := map[string]func() error{
		"ReadGraph":    func() error { _, err := ReadGraph(strings.NewReader(body)); return err },
		"ReadWeighted": func() error { _, _, err := ReadWeighted(strings.NewReader(body)); return err },
	}
	for name, read := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: err = %v, want the truncation error", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
			t.Errorf("%s allocated %d bytes for a %d-byte body", name, alloc, len(body))
		}
	}
}

// Graph indices are int32: a larger dimension is a typed error, not a
// 12 GB allocation.
func TestDimensionBeyondInt32(t *testing.T) {
	const body = "%%MatrixMarket matrix coordinate pattern symmetric\n3000000000 3000000000 0\n"
	if _, err := ReadGraph(strings.NewReader(body)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("ReadGraph: err = %v, want ErrTooLarge", err)
	}
	if _, _, err := ReadWeighted(strings.NewReader(body)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("ReadWeighted: err = %v, want ErrTooLarge", err)
	}
}

// ReadGraph allocates per body, never per entry line.
func TestReadGraphAllocsIndependentOfEntries(t *testing.T) {
	allocs := func(side int) float64 {
		var buf bytes.Buffer
		if err := WriteGraph(&buf, graph.Grid(side, side)); err != nil {
			t.Fatal(err)
		}
		body := buf.Bytes()
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadGraph(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The slack of 2 covers a GC emptying fmt's sync.Pool during the
	// larger runs; a per-line allocation would add tens of thousands.
	small, large := allocs(10), allocs(150) // 280 and 67,050 entry lines
	if large > small+2 {
		t.Fatalf("ReadGraph allocs grow with entries: %v for 280 lines, %v for 67,050", small, large)
	}
}

// parseIndex must accept exactly what strconv.Atoi accepts, with the same
// value, whether the field sits mid-buffer (the eight-byte path) or at
// the buffer's end.
func TestParseIndexMatchesAtoi(t *testing.T) {
	fields := []string{
		"0", "1", "7", "42", "1234567", "12345678", "123456789", "+5", "-5", "+", "-", "--1", "+-1",
		"1x", "x1", "1.0", "1e3", "0x10", "1_000", "007", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "00000000000000000000000000001", "99999999999999999999",
		":", "/", "12345:7",
	}
	for _, f := range fields {
		want, werr := strconv.Atoi(f)
		for _, tail := range []string{"", " ", "\n", "\t9 9 9 9 9 9 9 9", "\r\n1 2\n"} {
			v, end, ok := parseIndex([]byte(f+tail), 0)
			if ok != (werr == nil) || ok && v != want {
				t.Errorf("parseIndex(%q + %q) = %d, %v; Atoi = %d, %v", f, tail, v, ok, want, werr)
			}
			if end != len(f) {
				t.Errorf("parseIndex(%q + %q) ended at %d, want %d", f, tail, end, len(f))
			}
		}
	}
}

// A read error is returned wrapped, never mistaken for the end of input:
// a stream cut off mid-line must not yield the partial line as an entry.
func TestReadGraphReturnsReadErrors(t *testing.T) {
	errCut := errors.New("connection cut")
	body := "%%MatrixMarket matrix coordinate pattern symmetric\n20 20 2\n2 1\n12 1"
	_, err := ReadGraph(io.MultiReader(strings.NewReader(body), iotest.ErrReader(errCut)))
	if !errors.Is(err, errCut) {
		t.Fatalf("err = %v, want it to wrap the read error", err)
	}
}

// Lines are capped at 1 MiB, as they were under bufio.Scanner.
func TestReadGraphRejectsOverlongLine(t *testing.T) {
	body := "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n% " + strings.Repeat("x", maxLine) + "\n2 1\n"
	if _, err := ReadGraph(strings.NewReader(body)); err == nil {
		t.Fatal("accepted a line longer than 1 MiB")
	}
	body = "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n% " + strings.Repeat("x", maxLine/2) + "\n2 1\n"
	if _, err := ReadGraph(strings.NewReader(body)); err != nil {
		t.Fatalf("rejected a half-MiB comment line: %v", err)
	}
}
