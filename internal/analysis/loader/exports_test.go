package loader_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dvc/internal/analysis"
	"dvc/internal/analysis/loader"
)

// keptExports are the exported functions and methods that may have no
// non-test use, each with the keep case it falls under. The doc comment
// of a shared test hook names the tests that need it. Interface methods
// and the root dvc facade need no entry.
var keptExports = map[string]string{
	"dvc/internal/analysis/loader.LoadDir": "fixture loader",
	"dvc/internal/clock.Clock.Error":       "shared test hook",
	"dvc/internal/netsim.Fabric.Delay":     "shared test hook",
	"dvc/internal/payload.Bytes.Equal":     "shared test hook",
	"dvc/internal/sim.Kernel.Pending":      "shared test hook",
	"dvc/internal/sim.Kernel.Run":          "shared test hook",
	"dvc/internal/sim.Kernel.SlabLen":      "shared test hook",
}

// TestEveryExportHasANonTestCaller loads both modules, non-test files
// only, and fails on every exported function or method that nothing
// outside a _test.go file uses. Such an export is either dead or a test
// hook; the first goes, the second moves into its test or is listed in
// keptExports with its reason.
func TestEveryExportHasANonTestCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the two-module export scan in -short mode")
	}
	unused := map[string]bool{}
	for _, key := range unusedExports(loadModules(t)) {
		unused[key] = true
		if _, ok := keptExports[key]; !ok {
			t.Errorf("%s has no non-test use: delete it, or move it into the tests that use it", key)
		}
	}
	for key, reason := range keptExports {
		if !unused[key] {
			t.Errorf("keptExports[%q] is stale: it has a non-test use or is gone", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("keptExports[%q] gives no reason", key)
		}
	}
}

// modules is the non-test load of both modules (. and perfbench), made
// by the first gate that needs it and shared by the others.
var modules []*analysis.Package

// loadModules returns modules, loading it on first use.
func loadModules(t *testing.T) []*analysis.Package {
	t.Helper()
	if modules != nil {
		return modules
	}
	root, err := loader.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range []string{root, filepath.Join(root, "perfbench")} {
		loaded, err := loader.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, loaded...)
	}
	modules = pkgs
	return modules
}

// unusedExports returns the keys (import path, receiver, name) of the
// exported functions and methods declared in pkgs that no non-test
// identifier in pkgs refers to, other than from inside their own body,
// and that implement no interface method. The root package is the public
// API and is skipped.
func unusedExports(pkgs []*analysis.Package) []string {
	implemented := interfaceMethods(pkgs)
	declared := map[string]bool{}
	used := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if ok && fn.Exported() && pkg.Types.Path() != "dvc" && !implemented[exportKey(fn)] {
					declared[exportKey(fn)] = true
				}
			}
			var body *ast.FuncDecl
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok {
					body = fd
				}
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				fn = fn.Origin()
				if body != nil && pkg.Info.Defs[body.Name] == fn && id.Pos() >= body.Pos() && id.Pos() < body.End() {
					return true // recursion is not a use
				}
				used[exportKey(fn)] = true
				return true
			})
		}
	}
	var out []string
	for key := range declared {
		if !used[key] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// exportKey names a function or method by import path, receiver type and
// name, so that the same declaration seen from source (in its own package)
// and from export data (in its importers) has one key.
func exportKey(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() == nil {
		return name
	}
	return fn.Pkg().Path() + "." + name
}

// interfaceMethods returns the keys of the methods that let a type
// satisfy an interface. Each loaded package is type-checked on its own,
// its imports coming from export data, so types and interfaces are
// compared within one package's view: every named type of the module
// that the package sees, against every interface it sees plus the
// standard ones in wellKnownInterfaces.
func interfaceMethods(pkgs []*analysis.Package) map[string]bool {
	out := map[string]bool{}
	for _, pkg := range pkgs {
		ifaces := wellKnownInterfaces()
		var named []*types.TypeName
		for _, p := range visible(pkg.Types) {
			scope := p.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					if it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				} else if analysis.InModule(p.Path()) {
					named = append(named, tn)
				}
			}
		}
		for _, tn := range named {
			t := tn.Type()
			ptr := types.NewPointer(t)
			for _, it := range ifaces {
				if !types.Implements(t, it) && !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					out[tn.Pkg().Path()+"."+tn.Name()+"."+it.Method(i).Name()] = true
				}
			}
		}
	}
	return out
}

// visible returns p and every package it imports, directly or not.
func visible(p *types.Package) []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p)
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	walk(p)
	return out
}

// wellKnownInterfaces are the standard-library interfaces the program's
// types implement for fmt, encoding/json and io.
func wellKnownInterfaces() []*types.Interface {
	str := types.Typ[types.String]
	bytesT := types.NewSlice(types.Typ[types.Byte])
	errT := types.Universe.Lookup("error").Type()
	method := func(name string, params, results []*types.Var) *types.Func {
		return types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, types.NewTuple(params...), types.NewTuple(results...), false))
	}
	v := func(t types.Type) *types.Var { return types.NewVar(token.NoPos, nil, "", t) }
	iface := func(ms ...*types.Func) *types.Interface { return types.NewInterfaceType(ms, nil).Complete() }
	return []*types.Interface{
		errT.Underlying().(*types.Interface),
		iface(method("String", nil, []*types.Var{v(str)})),
		iface(method("MarshalJSON", nil, []*types.Var{v(bytesT), v(errT)})),
		iface(method("UnmarshalJSON", []*types.Var{v(bytesT)}, []*types.Var{v(errT)})),
		iface(method("Write", []*types.Var{v(bytesT)}, []*types.Var{v(types.Typ[types.Int]), v(errT)})),
	}
}
