package mm

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// fuzzMaxN bounds the fuzzed dimension: both readers allocate O(n) for
// the CSR arrays, which would otherwise dominate every run.
const fuzzMaxN = 1 << 16

// addFuzzSeeds seeds a Matrix Market fuzz target with the robustness
// bodies — CRLF, no final newline, truncation, comments, signed and
// overflowing indices — and a few value and whitespace variants.
func addFuzzSeeds(f *testing.F) {
	const pattern = "%%MatrixMarket matrix coordinate pattern symmetric\n"
	for _, body := range []string{
		robustBody,
		strings.ReplaceAll(robustBody, "\n", "\r\n"),
		strings.TrimSuffix(robustBody, "\n"),
		strings.TrimSuffix(strings.ReplaceAll(robustBody, "\n", "\r\n"), "\r\n"),
		pattern + "5 5 10\n2 1\n3 1\n",
		pattern + "3 3 2",
		pattern + "% only comments",
		pattern + "% c\n\n3 3 2\n  % c\n2 1\n\n3\t2\n",
		pattern + "3 3 2\n+2 +1\n-3 2\n",
		pattern + "3 3 1\n99999999999999999999 1\n",
		pattern + "3 3 1\n0000000000000000000003 1\n",
		pattern + "3 3 1\n2 1 extra fields\n",
		pattern + "-3 -3 0\n",
		pattern + "010 010 1\n9 8\n",
		"%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n1 1 1.0 0.0\n2 1 3.0 4.0\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 -1.5\n2 1 2.5\n3 1 0\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 xyz\n",
		"%%MatrixMarket matrix coordinate bogus symmetric\n2 2 0\n",
		"%%MatrixMarket matrix array real symmetric\n2 2\n",
		"",
	} {
		f.Add([]byte(body))
	}
}

// skipUnfuzzable skips inputs outside the differential contract: bytes
// ≥ 0x80, because the oracle also splits on Unicode spaces (U+0085,
// U+00A0), and dimensions past fuzzMaxN.
func skipUnfuzzable(t *testing.T, body []byte) {
	for _, c := range body {
		if c >= 0x80 {
			t.Skip("non-ASCII input")
		}
	}
	if _, n, _, err := oracleHeader(newOracleLineReader(bytes.NewReader(body))); err == nil && n > fuzzMaxN {
		t.Skip("dimension too large to fuzz")
	}
}

func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if !slices.Equal(got.Xadj, want.Xadj) || !slices.Equal(got.Adj, want.Adj) {
		t.Fatalf("graphs differ: scanner Xadj=%v Adj=%v, oracle Xadj=%v Adj=%v", got.Xadj, got.Adj, want.Xadj, want.Adj)
	}
}

// FuzzReadGraph checks ReadGraph against the strings-based oracle: no
// panic, the same accept/reject decision, and byte-equal CSR arrays.
func FuzzReadGraph(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		skipUnfuzzable(t, body)
		want, werr := oracleReadGraph(bytes.NewReader(body))
		got, gerr := ReadGraph(bytes.NewReader(body))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("accept/reject differ: oracle %v, scanner %v", werr, gerr)
		}
		if werr == nil {
			sameGraph(t, got, want)
		}
	})
}

// FuzzReadWeighted checks ReadWeighted against the oracle the same way,
// and that the weight functions agree on every edge and on the fallback.
func FuzzReadWeighted(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		skipUnfuzzable(t, body)
		want, wantW, werr := oracleReadWeighted(bytes.NewReader(body))
		got, gotW, gerr := ReadWeighted(bytes.NewReader(body))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("accept/reject differ: oracle %v, scanner %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		sameGraph(t, got, want)
		if got.N() > 0 && gotW(0, 0) != wantW(0, 0) {
			t.Fatalf("fallback weight %v, oracle %v", gotW(0, 0), wantW(0, 0))
		}
		for v := 0; v < got.N(); v++ {
			for _, u := range got.Neighbors(v) {
				if g, w := gotW(v, int(u)), wantW(v, int(u)); g != w {
					t.Fatalf("weight(%d,%d) = %v, oracle %v", v, u, g, w)
				}
			}
		}
	})
}

// FuzzReadHarwellBoeing checks that the Harwell–Boeing reader never panics
// and either rejects its input or returns a valid graph. Inputs whose type
// card declares more than fuzzMaxN rows are skipped.
func FuzzReadHarwellBoeing(f *testing.F) {
	for _, body := range []string{
		hbRSA,
		hbPSA,
		strings.ReplaceAll(hbPSA, "\n", "\r\n"),
		hbPSAWithType("PSA  -1 -1 0 0"),
		hbPSAWithType("PSA  2 2 -3 0"),
		"",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if lines := strings.SplitN(string(body), "\n", 4); len(lines) > 2 && len(lines[2]) >= 3 {
			if dims := strings.Fields(lines[2][3:]); len(dims) > 0 {
				if n, err := strconv.Atoi(dims[0]); err == nil && n > fuzzMaxN {
					t.Skip("dimension too large to fuzz")
				}
			}
		}
		g, _, err := ReadHarwellBoeing(bytes.NewReader(body))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted an invalid graph: %v", verr)
		}
	})
}
