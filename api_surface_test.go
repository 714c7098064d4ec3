package envred_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPISurface is the golden API-surface gate: it derives the
// exported symbol list of the root package (the go doc surface — types,
// funcs, consts, vars and exported methods, funcs and methods with their
// signatures) from the source and compares it against the committed
// testdata/api_surface.golden. An accidental removal, rename or signature
// change fails the test; intentional surface changes are committed by
// regenerating the golden with UPDATE_API_SURFACE=1:
//
//	UPDATE_API_SURFACE=1 go test -run TestPublicAPISurface .
//
// The daemon's typed client (package client) is public surface too and
// gets the same treatment against testdata/api_surface_client.golden.
func TestPublicAPISurface(t *testing.T) {
	t.Run("root", func(t *testing.T) {
		checkSurface(t, ".", "testdata/api_surface.golden")
	})
	t.Run("client", func(t *testing.T) {
		checkSurface(t, "client", "testdata/api_surface_client.golden")
	})
}

func checkSurface(t *testing.T, dir, golden string) {
	got := publicSurface(t, dir)
	if os.Getenv("UPDATE_API_SURFACE") != "" {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d symbols)", golden, len(got))
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with UPDATE_API_SURFACE=1): %v", golden, err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")

	wantSet := map[string]bool{}
	for _, s := range want {
		wantSet[s] = true
	}
	gotSet := map[string]bool{}
	for _, s := range got {
		gotSet[s] = true
	}
	var removed, added []string
	for _, s := range want {
		if !gotSet[s] {
			removed = append(removed, s)
		}
	}
	for _, s := range got {
		if !wantSet[s] {
			added = append(added, s)
		}
	}
	if len(removed) > 0 {
		t.Errorf("public API symbols REMOVED (breaking change — update %s with UPDATE_API_SURFACE=1 only if intentional):\n  %s",
			golden, strings.Join(removed, "\n  "))
	}
	if len(added) > 0 {
		t.Errorf("public API symbols added but not recorded in %s (regenerate with UPDATE_API_SURFACE=1):\n  %s",
			golden, strings.Join(added, "\n  "))
	}
}

// publicSurface parses the package's non-test sources and lists every
// exported top-level symbol: "func Name(params) results", "type Name",
// "const Name", "var Name", and "method (Recv) Name(params) results" for
// exported methods on exported receivers.
func publicSurface(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					sig := strings.TrimPrefix(types.ExprString(d.Type), "func")
					if d.Recv == nil {
						out = append(out, "func "+d.Name.Name+sig)
						continue
					}
					recv := recvTypeName(d.Recv.List[0].Type)
					if recv == "" || !ast.IsExported(recv) {
						continue
					}
					out = append(out, fmt.Sprintf("method (%s) %s%s", recv, d.Name.Name, sig))
				case *ast.GenDecl:
					kind := ""
					switch d.Tok {
					case token.TYPE:
						kind = "type"
					case token.CONST:
						kind = "const"
					case token.VAR:
						kind = "var"
					default:
						continue
					}
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() {
								out = append(out, kind+" "+sp.Name.Name)
							}
						case *ast.ValueSpec:
							for _, id := range sp.Names {
								if id.IsExported() {
									out = append(out, kind+" "+id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func recvTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	}
	return ""
}
