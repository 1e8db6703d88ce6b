package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
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
}

// oracleRefs returns the oracle selectors f names (x.Dense,
// v.SetScalarBoundary), by position.
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

// productTree parses, once, every non-test Go file the build would compile
// under cmd, examples and internal (the product) and in benchmark (the
// ledger: a caller, never a subject), by import path.
var productTree = sync.OnceValues(func() (map[string][]*ast.File, error) {
	pkgs := map[string][]*ast.File{}
	for _, root := range []string{"cmd", "examples", "internal", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			dir, name := filepath.Split(path)
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				return err
			}
			f, err := parser.ParseFile(productFset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ipath := "repro/" + filepath.ToSlash(filepath.Clean(dir))
			pkgs[ipath] = append(pkgs[ipath], f)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("walking %s: %v", root, err)
		}
	}
	return pkgs, nil
})

// productFset positions every file of productTree.
var productFset = token.NewFileSet()

// walkProductGo hands every non-test Go file under cmd, examples and
// internal to visit.
func walkProductGo(t *testing.T, visit func(path string, f *ast.File)) {
	t.Helper()
	pkgs, err := productTree()
	if err != nil {
		t.Fatal(err)
	}
	for ipath, files := range pkgs {
		if ipath == ledgerPath {
			continue
		}
		for _, f := range files {
			visit(productFset.Position(f.Package).Filename, f)
		}
	}
}

// TestOraclesAreTestOnly keeps the dense stepper and the scalar VIC boundary
// what they are kept for — references that tests compare the product paths
// against — by failing when a driver, example or library package selects one.
func TestOraclesAreTestOnly(t *testing.T) {
	walkProductGo(t, func(path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
	refs:
		for name, pos := range oracleRefs(productFset, f) {
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
}`
	fset := token.NewFileSet()
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
	walkProductGo(t, func(path string, f *ast.File) {
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
	slices.Sort(callers)
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

// allowRow keeps one exported name that no product code uses. kind says why
// such a name may exist at all, from a closed set:
//
//	oracle    a reference implementation a differential test compares against
//	mutation  a hook that plants a bug so a test can show a checker catches it
//	ledger    benchmark/ compiles against it (and nothing else does)
//	probe     an accessor of at most three lines returning stored state,
//	          through which a test reads what it cannot otherwise reach
type allowRow struct{ name, kind, reason string }

// fenceAllow is every exported name under internal/ that stays without a
// product caller. A row whose name gains one is reported stale, so the list
// cannot outlive its reasons.
var fenceAllow = []allowRow{
	{"cluster.WithOracles", "oracle", "selects the dense stepper and scalar VIC boundary the differential suites compare the product paths against"},
	{"apps/pagerank.SerialReference", "oracle", "one-core PageRank the distributed runs are compared against"},
	{"fftkernel.DFT", "oracle", "O(n^2) transform TestForwardMatchesDFT compares the FFT against"},
	{"fftkernel.Energy", "oracle", "Parseval check on the FFT's output"},
	{"apps/heat.Params.K", "oracle", "the heat test sweeps stability numbers against the exact solution"},
	{"apps/vorticity.Params.InitTaylorGreen", "oracle", "starts the run the analytic Taylor-Green decay is compared against"},
	{"apps/pagerank.Params.KeepRanks", "oracle", "gathers the ranks the test compares with SerialReference"},

	{"dv.Endpoint.SetMutation", "mutation", "plants reliable-layer bugs internal/check must catch"},
	{"dvswitch.Core.SetMutation", "mutation", "plants switch bugs internal/check must catch"},
	{"obs/attr.Tracer.SetMutation", "mutation", "plants an attribution bug the stage-sum invariant must catch"},
	{"vic.VIC.SetMutation", "mutation", "plants VIC bugs internal/check must catch"},

	{"sim.NewFanPool", "ledger", "benchmark/fan.go measures dvswitch.fan2_speedup with it; ROADMAP item 6 retires both"},
	{"sim.FanPool.Stop", "ledger", "as sim.NewFanPool"},
	{"dvswitch.Core.SetFanPool", "ledger", "as sim.NewFanPool"},
	{"dvswitch.Core.Prewarm", "ledger", "benchmark/drivers.go sizes the saturated core before timing it"},
	{"bench.Fig3a", "ledger", "benchmark/workloads.go builds figures_small from the panels one at a time; dvbench takes both from one sweep through Fig3. ROADMAP item 6 points figureTables at Fig3"},
	{"bench.Fig3b", "ledger", "as bench.Fig3a"},
	{"bench.Fig5", "ledger", "benchmark/workloads.go calls Fig5(opt, nil), which writes no file; dvbench takes the trace through Fig5Trace"},
	{"ib.Fabric.Transfer", "ledger", "benchmark/drivers.go times ib.transfer_ns through this func() form; mpi, the product caller, pools its arguments and calls TransferArg"},

	{"vic.VIC.Peek", "probe", "dv and check tests read the DV Memory word a write should have landed in"},
	{"dv.Endpoint.GCValue", "probe", "dv's arming-hazard test reads the counter a late OpSetGC left stuck"},
	{"comm.Backend.Net", "probe", "comm and apprt tests check which fabric a Backend was built for"},
	{"comm.Backend.Rank", "probe", "comm's Alltoall test builds and checks each node's blocks by rank"},
	{"comm.Backend.Size", "probe", "as comm.Backend.Rank"},
	{"sim.Train.At", "probe", "dvswitch and vic tests read the records waiting on a train, key and all"},
}

// checkedTree is the product tree type-checked from source: packages by
// import path, with the identifier uses of all of them in one Info.
type checkedTree struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer // resolves what files does not hold; nil when nothing else is imported
	info  *types.Info
	pkgs  map[string]*types.Package
	errs  []error
}

// Import type-checks a package of the tree on first use and hands anything
// else to the standard library's source importer, so every use of a module
// object resolves to the one object its declaration produced.
func (c *checkedTree) Import(path string) (*types.Package, error) {
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := c.files[path]
	if !ok {
		if c.std == nil {
			return nil, fmt.Errorf("package %s is not in the tree", path)
		}
		return c.std.Import(path)
	}
	conf := types.Config{Importer: c, Error: func(err error) { c.errs = append(c.errs, err) }}
	p, _ := conf.Check(path, c.fset, files, c.info)
	c.pkgs[path] = p
	return p, nil
}

// ledgerPath is the one package that is scanned as a caller but is not
// product: a name only it uses needs a ledger row.
const ledgerPath = "repro/benchmark"

// exportFence type-checks pkgs (import path -> non-test files) and returns
// one line per finding:
//
//   - an exported function, type, constant, variable or method declared under
//     internal/ that no non-test file of the tree uses and allow does not
//     list. Struct fields are out of scope. A method also counts as used when
//     its receiver implements an interface — declared in the tree, or error,
//     fmt.Stringer, sort.Interface, flag.Value — that names it;
//   - a package under internal/ that nothing under cmd/ or examples/ imports,
//     directly or through other packages;
//   - a field declared in an app's own Params or Opts (under internal/apps/,
//     not the embedded cluster.Platform) that no non-test file writes, as a
//     composite-literal key or an assignment, outside that app's defaults
//     method, and allow does not list;
//   - a row of allow that names nothing, has gained a product use (for an
//     app setting, a writer), or is kind ledger without a use in benchmark/.
func exportFence(fset *token.FileSet, pkgs map[string][]*ast.File, std types.Importer, allow []allowRow) ([]string, error) {
	c := &checkedTree{fset: fset, files: pkgs, std: std, pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	for path := range pkgs {
		c.Import(path)
	}
	if len(c.errs) > 0 {
		return nil, fmt.Errorf("type-checking the tree: %d errors, first: %v", len(c.errs), c.errs[0])
	}

	// Who uses what. The type a method is declared on does not count as a
	// use of that type.
	product, ledger := map[types.Object]bool{}, map[types.Object]bool{}
	written := map[types.Object]bool{} // struct fields some non-test file sets
	imports := map[string][]string{}
	for path, files := range pkgs {
		uses := product
		if path == ledgerPath {
			uses = ledger
		}
		for _, f := range files {
			for _, im := range f.Imports {
				imports[path] = append(imports[path], strings.Trim(im.Path.Value, `"`))
			}
			for _, d := range f.Decls {
				// An app's defaults method fills its own settings; that is
				// not a run setting them.
				fn, _ := d.(*ast.FuncDecl)
				inDefaults := fn != nil && fn.Recv != nil && fn.Name.Name == "defaults"
				write := func(id *ast.Ident) {
					if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() && !(inDefaults && v.Pkg().Path() == path) {
						written[v] = true
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							write(id)
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								write(sel.Sel)
							}
						}
					}
					return true
				})
			}
			recv := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil {
					ast.Inspect(fn.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || recv[id] {
					return true
				}
				obj := c.info.Uses[id]
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin() // a generic method is declared once
				}
				if obj != nil {
					uses[obj] = true
				}
				return true
			})
		}
	}

	// The interfaces a method may be reached through.
	ifaces := []*types.Named{types.Universe.Lookup("error").Type().(*types.Named)}
	if std != nil {
		for _, q := range [][2]string{{"fmt", "Stringer"}, {"sort", "Interface"}, {"flag", "Value"}} {
			p, err := std.Import(q[0])
			if err != nil {
				return nil, err
			}
			ifaces = append(ifaces, p.Scope().Lookup(q[1]).Type().(*types.Named))
		}
	}
	for _, p := range c.pkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && types.IsInterface(tn.Type()) {
				if named := tn.Type().(*types.Named); named.TypeParams().Len() == 0 {
					ifaces = append(ifaces, named)
				}
			}
		}
	}
	throughInterface := func(recv *types.Named, method string) bool {
		if recv.TypeParams().Len() > 0 {
			return false
		}
		for _, named := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(named, false, nil, method); obj == nil || named == recv {
				continue
			}
			it := named.Underlying().(*types.Interface)
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	allowed := map[string]allowRow{}
	for _, row := range allow {
		allowed[row.name] = row
	}
	seen := map[string]bool{}
	var findings []string
	judge := func(name string, obj types.Object, recv *types.Named) {
		if !obj.Exported() {
			return
		}
		used := product[obj] || recv != nil && throughInterface(recv, obj.Name())
		row, listed := allowed[name]
		seen[name] = true
		switch {
		case listed && used:
			findings = append(findings, fmt.Sprintf("stale allow-list row %s (%s): product code uses it now", name, row.kind))
		case listed && (row.kind == "ledger") != ledger[obj]:
			findings = append(findings, fmt.Sprintf("stale allow-list row %s (%s): kind ledger is for what benchmark/ uses, and only that", name, row.kind))
		case !listed && !used && ledger[obj]:
			findings = append(findings, fmt.Sprintf("%s: %s is used by benchmark/ alone: allow-list it as ledger", fset.Position(obj.Pos()), name))
		case !listed && !used:
			findings = append(findings, fmt.Sprintf("%s: %s has no use in a non-test file of cmd/, examples/ or internal/", fset.Position(obj.Pos()), name))
		}
	}
	for path, p := range c.pkgs {
		_, label, internal := strings.Cut(path, "/internal/")
		if !internal {
			continue
		}
		for _, n := range p.Scope().Names() {
			obj := p.Scope().Lookup(n)
			judge(label+"."+n, obj, nil)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				judge(label+"."+n+"."+named.Method(i).Name(), named.Method(i), named)
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := range it.NumExplicitMethods() {
					judge(label+"."+n+"."+it.ExplicitMethod(i).Name(), it.ExplicitMethod(i), named)
				}
			}
		}
	}
	// App settings nothing sets: a constant, or nothing at all.
	for path, p := range c.pkgs {
		label, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok || !strings.HasPrefix(label, "apps/") {
			continue
		}
		for _, typ := range []string{"Params", "Opts"} {
			tn, ok := p.Scope().Lookup(typ).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := range st.NumFields() {
				fld := st.Field(i)
				if fld.Embedded() {
					continue
				}
				name := label + "." + typ + "." + fld.Name()
				row, listed := allowed[name]
				seen[name] = true
				switch {
				case listed && written[fld]:
					findings = append(findings, fmt.Sprintf("stale allow-list row %s (%s): a non-test file sets it now", name, row.kind))
				case !listed && !written[fld]:
					findings = append(findings, fmt.Sprintf("%s: %s is set by no non-test file outside its defaults: make it a constant or delete it", fset.Position(fld.Pos()), name))
				}
			}
		}
	}
	for _, row := range allow {
		if !seen[row.name] {
			findings = append(findings, fmt.Sprintf("stale allow-list row %s (%s): no such exported name under internal/", row.name, row.kind))
		}
	}

	// Packages the drivers and examples never load.
	reached := map[string]bool{}
	var reach func(path string)
	reach = func(path string) {
		if _, ok := pkgs[path]; !ok || reached[path] {
			return
		}
		reached[path] = true
		for _, im := range imports[path] {
			reach(im)
		}
	}
	for path := range pkgs {
		if strings.Contains(path, "/cmd/") || strings.Contains(path, "/examples/") {
			reach(path)
		}
	}
	for path := range pkgs {
		if strings.Contains(path, "/internal/") && !reached[path] {
			findings = append(findings, fmt.Sprintf("package %s: nothing under cmd/ or examples/ imports it", path))
		}
	}
	slices.Sort(findings)
	return findings, nil
}

// TestEveryExportHasAProductCaller is the one rule the special cases above
// do not need to repeat: an exported name under internal/ is used by the
// product, or is on fenceAllow with a reason, or is deleted.
func TestEveryExportHasAProductCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source: ~1 s plain, ~8 s under -race, which has nothing to find in it")
	}
	if len(fenceAllow) > 30 {
		t.Errorf("allow-list has %d rows, at most 30", len(fenceAllow))
	}
	for _, row := range fenceAllow {
		if !slices.Contains([]string{"oracle", "mutation", "ledger", "probe"}, row.kind) || row.reason == "" {
			t.Errorf("allow-list row %s: kind %q, reason %q", row.name, row.kind, row.reason)
		}
	}
	pkgs, err := productTree()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := exportFence(productFset, pkgs, importer.ForCompiler(productFset, "source", nil), fenceAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestExportFenceFixture feeds the analysis a tree small enough to read: one
// dead export, one export used only through an interface, one allow-list row
// whose name has a caller, and an app whose Params has one field a driver
// sets and one only its defaults method and a same-named field of another
// struct set. Exactly the dead export, the unset field and the stale row are
// findings.
func TestExportFenceFixture(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{}
	for path, src := range map[string]string{
		"repro/internal/shape/shape.go": `package shape
type Shape interface{ Area() int }
func Total(s Shape) int { return s.Area() }`,
		"repro/internal/shape/square.go": `package shape
type Square struct{}
func (Square) Area() int { return 1 } // reached only through Shape
func Dead() {}
func Probe() int { return 0 }`,
		"repro/internal/apps/toy/toy.go": `package toy
type Params struct{ Set, Unset int }
func (p *Params) defaults() { p.Set, p.Unset = 1, 2 }
type other struct{ Unset int }
var _ = other{Unset: 1}`,
		"repro/cmd/draw/main.go": `package main
import ("repro/internal/apps/toy"; "repro/internal/shape")
func main() { shape.Total(shape.Square{}); shape.Probe(); _ = toy.Params{Set: 3} }`,
	} {
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgs[dir] = append(pkgs[dir], f)
	}
	got, err := exportFence(fset, pkgs, nil, []allowRow{{"shape.Probe", "probe", "fixture"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !strings.Contains(got[0], "apps/toy.Params.Unset is set by no non-test file") ||
		!strings.Contains(got[1], "shape.Dead has no use") || !strings.HasPrefix(got[2], "stale allow-list row shape.Probe") {
		t.Errorf("fixture findings: %q, want toy's Params.Unset unset, shape.Dead dead and shape.Probe stale", got)
	}
}
