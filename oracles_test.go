package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// oracleHomes lists, per selector that reaches a reference implementation,
// the directories whose non-test code may name it: the package that defines
// it, and internal/cluster, which carries the selection from WithOracles to
// the engines it builds. Everything else reaches an oracle from a _test.go
// file or not at all.
var oracleHomes = map[string][]string{
	"Dense":             {"internal/dvswitch", "internal/cluster"}, // dvswitch.Core.Dense
	"SetScalarBoundary": {"internal/vic", "internal/cluster"},      // (*vic.VIC).SetScalarBoundary
	"WithOracles":       {"internal/cluster"},                      // cluster.WithOracles
}

// oracleRefs returns the oracle selectors f names (x.Dense, v.SetScalarBoundary,
// cluster.WithOracles), by position.
func oracleRefs(fset *token.FileSet, f *ast.File) map[string]token.Position {
	refs := map[string]token.Position{}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && oracleHomes[sel.Sel.Name] != nil {
			refs[sel.Sel.Name] = fset.Position(sel.Pos())
		}
		return true
	})
	return refs
}

// walkProductGo parses every non-test Go file under cmd, examples and
// internal and hands it to visit.
func walkProductGo(t *testing.T, fset *token.FileSet, visit func(path string, f *ast.File)) {
	t.Helper()
	checked := 0
	for _, root := range []string{"cmd", "examples", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			checked++
			visit(path, f)
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
	if checked == 0 {
		t.Fatal("no Go files found")
	}
}

// TestOraclesAreTestOnly keeps the dense stepper and the scalar VIC boundary
// what they are kept for — references that tests compare the product paths
// against — by failing when a driver, example or library package selects one.
func TestOraclesAreTestOnly(t *testing.T) {
	fset := token.NewFileSet()
	walkProductGo(t, fset, func(path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
	refs:
		for name, pos := range oracleRefs(fset, f) {
			for _, home := range oracleHomes[name] {
				if dir == home {
					continue refs
				}
			}
			t.Errorf("%s: non-test code selects an oracle through .%s; only tests may (allowed in %v)",
				pos, name, oracleHomes[name])
		}
	})

	// The scan itself: a driver that does what this test forbids is seen.
	const driver = `package main
func main() {
	c.Dense = true
	v.SetScalarBoundary(true)
	p = cluster.WithOracles(p, true, true)
}`
	f, err := parser.ParseFile(fset, "cmd/scratch/main.go", driver, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := oracleRefs(fset, f); len(got) != len(oracleHomes) {
		t.Errorf("scan of a driver using all %d oracle routes found %v", len(oracleHomes), got)
	}
}

// productCallers returns, as "path:func", every non-test function under cmd,
// examples and internal that calls a function or method named one of names
// ("pkg.Func" names match only calls written with that qualifier).
func productCallers(t *testing.T, names ...string) []string {
	t.Helper()
	var callers []string
	walkProductGo(t, token.NewFileSet(), func(path string, f *ast.File) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := ""
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
					if x, ok := fun.X.(*ast.Ident); ok && slices.Contains(names, x.Name+"."+name) {
						name = x.Name + "." + name
					}
				}
				if slices.Contains(names, name) {
					callers = append(callers, filepath.ToSlash(path)+":"+fn.Name.Name)
				}
				return true
			})
		}
	})
	return callers
}

// TestEdgeStreamHasOneProducer keeps the Kronecker stream generated once per
// run: bfs.Edges is the only non-test function that calls GenerateEdge, so a
// builder that replays the stream per node can only live in a _test.go file.
func TestEdgeStreamHasOneProducer(t *testing.T) {
	callers := productCallers(t, "GenerateEdge")
	if want := []string{"internal/apps/bfs/kron.go:Edges"}; !reflect.DeepEqual(callers, want) {
		t.Errorf("non-test callers of GenerateEdge: %v, want %v", callers, want)
	}
}

// TestFanIsLedgerOnly keeps the switch fan (internal/dvswitch/par.go and the
// FanPool in internal/sim/pool.go) what it is kept for: benchmark/fan.go and
// the fan's own differential tests build a pool and attach it; no driver,
// example or library package does, so a run stays single-threaded until the
// PR that retires dvswitch.fan2_speedup deletes both files.
func TestFanIsLedgerOnly(t *testing.T) {
	if callers := productCallers(t, "SetFanPool", "NewFanPool"); len(callers) != 0 {
		t.Errorf("non-test code outside benchmark/ reaches the fan: %v", callers)
	}
}

// TestEncodersFeedOnlyCapture keeps the canonical state encoders what they
// are kept for — images a determinism audit compares inside one process: the
// only non-test code that builds an Encoder or calls a component's SnapshotTo
// is cluster's capture (and a component's own SnapshotTo composing its
// parts), so the encoders cannot quietly become a persistence format again.
func TestEncodersFeedOnlyCapture(t *testing.T) {
	callers := productCallers(t, "SnapshotTo", "snapshot.NewEncoder")
	callers = slices.DeleteFunc(callers, func(c string) bool { return strings.HasSuffix(c, ":SnapshotTo") })
	callers = slices.Compact(callers)
	if want := []string{"internal/cluster/checkpoint.go:capture"}; !reflect.DeepEqual(callers, want) {
		t.Errorf("non-test callers of SnapshotTo/snapshot.NewEncoder: %v, want %v", callers, want)
	}
}
