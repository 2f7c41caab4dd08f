// Package internal_test holds the module's reach check: every exported
// name under internal/ has a caller outside the tests. `make onereach`
// runs it, and so does plain `go test ./...`.
package internal_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed names what may stay exported with only tests reaching
// it, and why: importable test support, methods a standard interface
// calls, and test seams that tests in other packages read or set (an
// export_test.go file serves only its own package's tests). A key is
// "pkg", which allows a whole package, "pkg.Name", which allows a name
// and its methods or fields, "pkg.Type.Method" or "pkg.Type.Field", or
// ".Method", which allows a method name on any type.
var reachAllowed = map[string]string{
	"faultnet":                  "test support: a connection wrapper that injects faults (net.Conn methods included)",
	"driver.Mock":               "test support: the fault-injecting driver",
	"driver.MockConfig":         "test support: the fault-injecting driver's settings",
	"driver.NewMock":            "test support: the fault-injecting driver",
	".Less":                     "sort.Interface",
	".Swap":                     "sort.Interface",
	"sim.Config.CostOverride":   "test seam: a fixed cost matrix for the Pareto checks",
	"alloc.QANT.Sellers":        "test seam: the golden digest and the Pareto checks read each node's seller",
	"metrics.Collector.Samples": "test seam: the golden digest and the simulator's invariant checks read every sample",
}

type srcFile struct {
	pkg      string // directory base name, e.g. "market"
	test     bool
	internal bool // under internal/
	f        *ast.File
}

// parseModule parses every Go file of the module rooted at root,
// skipping testdata directories.
func parseModule(t *testing.T, root string) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || (n != "." && n != ".." && strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, srcFile{
			pkg:      filepath.Base(filepath.Dir(path)),
			test:     strings.HasSuffix(path, "_test.go"),
			internal: strings.HasPrefix(filepath.ToSlash(path), "../internal/"),
			f:        f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestEveryExportHasAProductCaller fails on an exported top-level
// identifier or method declared in a non-test file under internal/
// whose name no non-test file in the module uses, and on an exported
// field of a *Config or *Options struct that no non-test file sets.
// It matches by name, so a name used for something else elsewhere
// counts as reached: the check can miss an unreached name, but never
// flags a reached one.
func TestEveryExportHasAProductCaller(t *testing.T) {
	files := parseModule(t, "..")
	used := map[string]bool{} // identifiers in non-test files, declarations excepted
	set := map[string]bool{}  // field names a non-test file sets
	type decl struct {
		key, name string
		field     bool // a config field: reached when set, not when named
	}
	var decls []decl
	for _, sf := range files {
		if sf.test {
			continue
		}
		declared := map[*ast.Ident]bool{}
		add := func(key string, id *ast.Ident, field bool) {
			if sf.internal && id.IsExported() {
				decls = append(decls, decl{sf.pkg + "." + key, id.Name, field})
			}
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
				key := d.Name.Name
				if d.Recv != nil {
					key = recvName(d.Recv.List[0].Type) + "." + key
				}
				add(key, d.Name, false)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declared[s.Name] = true
						add(s.Name.Name, s.Name, false)
						st, ok := s.Type.(*ast.StructType)
						if !ok || !(strings.HasSuffix(s.Name.Name, "Config") || strings.HasSuffix(s.Name.Name, "Options")) {
							continue
						}
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								add(s.Name.Name+"."+n.Name, n, true)
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[n] = true
							add(n.Name, n, false)
						}
					}
				}
			}
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					set[k.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if s, ok := lhs.(*ast.SelectorExpr); ok {
						set[s.Sel.Name] = true
					}
				}
			case *ast.UnaryExpr:
				if s, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					set[s.Sel.Name] = true // flag.IntVar(&cfg.X, ...)
				}
			}
			return true
		})
	}

	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	hit := map[string]bool{}
	for _, d := range decls {
		reached := used[d.name]
		if d.field {
			reached = set[d.name]
		}
		if reached {
			continue
		}
		if k := allowedBy(d.key); k != "" {
			hit[k] = true
			continue
		}
		if d.field {
			t.Errorf("%s: a config field that no non-test file sets; make it a constant, or allowlist it with a reason", d.key)
		} else {
			t.Errorf("%s: exported, but only tests use it; delete it, move it to a _test.go file, or allowlist it with a reason", d.key)
		}
	}
	for k := range reachAllowed {
		if !hit[k] {
			t.Errorf("allowlist entry %q allows nothing a product caller misses; drop it", k)
		}
	}
}

// allowedBy returns the allowlist entry that covers key, or "".
func allowedBy(key string) string {
	parts := strings.Split(key, ".")
	for _, k := range []string{parts[0], strings.Join(parts[:2], "."), key, "." + parts[len(parts)-1]} {
		if reachAllowed[k] != "" {
			return k
		}
	}
	return ""
}

// recvName is a method receiver's type name, pointer and type
// parameters stripped.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
