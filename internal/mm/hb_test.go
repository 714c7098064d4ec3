package mm

import (
	"strings"
	"testing"
)

// A tiny 4×4 symmetric matrix in genuine Harwell–Boeing layout (RSA,
// lower-triangle column storage):
//
//	[ 2 -1  0  0]
//	[-1  2 -1  0]
//	[ 0 -1  2 -3]
//	[ 0  0 -3  2]
const hbRSA = `Tiny test matrix                                                        TEST1
             5             1             1             2             0
RSA                          4             4             7             0
(13I6)          (16I5)          (4E20.12)
     1     3     5     7     8
    1    2    2    3    3    4    4
  0.200000000000E+01 -0.100000000000E+01  0.200000000000E+01 -0.100000000000E+01
  0.200000000000E+01 -0.300000000000E+01  0.200000000000E+01
`

func TestReadHarwellBoeingRSA(t *testing.T) {
	g, w, err := ReadHarwellBoeing(strings.NewReader(hbRSA))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 4, 3", g.N(), g.M())
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if g.HasEdge(0, 2) {
		t.Error("spurious edge 0-2")
	}
	if got := w(0, 1); got != 1 {
		t.Errorf("w(0,1) = %v, want 1", got)
	}
	if got := w(2, 3); got != 3 {
		t.Errorf("w(2,3) = %v, want |−3| = 3", got)
	}
}

const hbPSA = `Pattern-only matrix                                                     TEST2
             4             1             2             0             0
PSA                          5             5             6             0
(13I6)          (8I3)
     1     3     4     6     7     7
  2  3
  3
  4  5
  5
`

func TestReadHarwellBoeingPattern(t *testing.T) {
	g, w, err := ReadHarwellBoeing(strings.NewReader(hbPSA))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	// Entries: col1 rows {2,3}, col2 row {3}, col3 rows {4,5}, col4 {5}.
	want := [][2]int{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}}
	if g.M() != len(want) {
		t.Fatalf("M = %d, want %d", g.M(), len(want))
	}
	for _, e := range want {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %v", e)
		}
	}
	if w(0, 1) != 1 {
		t.Error("pattern weights not unit")
	}
}

// hbPSAWithType is hbPSA with its type-and-dimension card replaced.
func hbPSAWithType(card string) string {
	lines := strings.SplitAfter(hbPSA, "\n")
	lines[2] = card + "\n"
	return strings.Join(lines, "")
}

func TestReadHarwellBoeingErrors(t *testing.T) {
	cases := map[string]string{
		"elemental": strings.Replace(hbRSA, "RSA", "RSE", 1),
		"truncated": hbRSA[:len(hbRSA)/2],
		"not square": `x
             4             1             1             2             0
RSA                          3             4             7             0
(13I6)          (16I5)          (4E20.12)
`,
		"bad pointers": `x
             4             1             1             2             0
RSA                          2             2             1             0
(13I6)          (16I5)          (4E20.12)
     2     2     2
     1
  0.1E+01
`,
		"negative dimension":               hbPSAWithType("PSA  -1 -1 0 0"),
		"negative dimension past pointers": hbPSAWithType("PSA  -5 -5 0 0"),
		"negative nnz":                     hbPSAWithType("PSA  2 2 -3 0"),
		"pointers decrease past nnz": `x
             3             1             1             0             0
PSA                          3             3             2             0
(13I6)          (8I3)
     1     5     2     3
  2  3
`,
	}
	for name, in := range cases {
		if _, _, err := ReadHarwellBoeing(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseFortranFormat(t *testing.T) {
	cases := map[string]fortranFormat{
		"(13I6)":       {13, 6},
		"(16I5)":       {16, 5},
		"(4E20.12)":    {4, 20},
		"(1P5D16.8)":   {5, 16},
		"(1P,4E20.12)": {4, 20},
		"(I9)":         {1, 9},
		"(10F7.1)":     {10, 7},
	}
	for in, want := range cases {
		got, err := parseFortranFormat(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", in, got, want)
		}
	}
	for _, bad := range []string{"(A8)", "13I6", "(I)", "()"} {
		if _, err := parseFortranFormat(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestFortranFloat(t *testing.T) {
	cases := map[string]float64{
		"0.2E+01":  2,
		"-1.5D-02": -0.015,
		"3.25":     3.25,
		"1.23+05":  123000,
		"-4.5-01":  -0.45,
	}
	for in, want := range cases {
		got, err := fortranFloat(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-12*(1+want) && diff > 1e-12 {
			t.Errorf("%q: got %v, want %v", in, got, want)
		}
	}
}
