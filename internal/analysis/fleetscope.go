package analysis

import (
	"go/ast"
	"go/types"
)

// FleetScope verifies the fleet concurrency sanction structurally.
// internal/fleet is the one package allowed to use goroutines (trials
// are embarrassingly parallel and each worker owns its trial's entire
// simulation world), and until now the rule "kernels never cross
// goroutines" lived in a comment in rules.go. This analyzer checks it:
// a function literal passed to a fleet entry point (fleet.Map, the
// experiments trial runner sweep, or partition.Coordinator.Run) must
// not capture a variable whose type reaches simulation kernel state —
// sim.Kernel, sim.Timer, or math/rand.Rand, directly or through struct
// fields, pointers, slices, arrays or maps.
//
// Capturing such a variable means every worker goroutine shares one
// kernel or one RNG stream: the trials race, and worse, the interleaving
// silently reorders rand draws and event scheduling, destroying the
// bit-for-bit reproducibility the fixed seed promises. The correct shape
// — construct the whole world inside the closure, per trial — captures
// only configuration (options, specs, tracers), which this analyzer
// leaves alone.
//
// Method values passed as the worker function are held to the same
// rule via their receiver.
var FleetScope = &Analyzer{
	Name: "fleetscope",
	Doc: "closures passed to fleet.Map/sweep must not capture kernel " +
		"state (sim.Kernel, sim.Timer, *rand.Rand) across goroutines",
	Run: runFleetScope,
}

// fleetEntryPoints maps package path -> function names whose func-typed
// arguments run on worker goroutines. An empty set means every function
// in the package is an entry point.
// Partition.Send is deliberately NOT an entry point: its closure runs on
// the destination partition's goroutine and legitimately captures the
// destination's state (that is the message's whole job); the exchange
// protocol, not capture analysis, is what orders it.
var fleetEntryPoints = map[string]map[string]bool{
	"dvc/internal/fleet":         nil, // every exported func fans out
	"dvc/internal/experiments":   {"sweep": true},
	"dvc/internal/sim/partition": {"Run": true}, // drivers run on partition goroutines
}

func runFleetScope(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		// Map each FuncLit to its enclosing FuncDecl so capture analysis
		// knows where "outside the closure" begins.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || isConversion(info, call) || !isFleetEntryPoint(info, call) {
					return true
				}
				for _, arg := range call.Args {
					switch a := ast.Unparen(arg).(type) {
					case *ast.FuncLit:
						checkFleetClosure(pass, fd, a)
					case *ast.SelectorExpr:
						if isMethodValue(info, a) {
							if rt := info.TypeOf(a.X); rt != nil && reachesKernelState(rt) {
								pass.Reportf(a.Pos(), "method value %s.%s passed to fleet carries receiver type %s, which reaches kernel state; kernels never cross goroutines — construct per-trial state inside the worker",
									exprText(a.X), a.Sel.Name, rt.String())
							}
						}
					}
				}
				return true
			})
		}
	}
	return nil
}

// isFleetEntryPoint reports whether call targets a function that fans
// its func arguments out to worker goroutines.
func isFleetEntryPoint(info *types.Info, call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
		if obj == nil {
			obj = info.Defs[fun]
		}
	case *ast.IndexExpr: // generic instantiation fleet.Map[T](...)
		switch x := ast.Unparen(fun.X).(type) {
		case *ast.SelectorExpr:
			obj = info.Uses[x.Sel]
		case *ast.Ident:
			obj = info.Uses[x]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	names, ok := fleetEntryPoints[fn.Pkg().Path()]
	if !ok {
		return false
	}
	return names == nil || names[fn.Name()]
}

// checkFleetClosure flags captured variables whose types reach kernel
// state.
func checkFleetClosure(pass *Pass, enclosing *ast.FuncDecl, lit *ast.FuncLit) {
	info := pass.TypesInfo
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		pos := v.Pos()
		inEnclosing := enclosing.Pos() <= pos && pos < enclosing.End()
		inLit := lit.Pos() <= pos && pos < lit.End()
		if !inEnclosing || inLit {
			return true
		}
		seen[v] = true
		if reachesKernelState(v.Type()) {
			pass.Reportf(id.Pos(), "fleet worker closure captures %q (type %s), which reaches kernel state; kernels never cross goroutines — construct the kernel and RNG inside the per-trial closure",
				v.Name(), v.Type().String())
		}
		return true
	})
}

// kernelStateAnchors are the types whose presence anywhere in a
// captured variable's type graph makes sharing it across trial
// goroutines a determinism bug.
var kernelStateAnchors = map[string]bool{
	"dvc/internal/sim.Kernel": true,
	"dvc/internal/sim.Timer":  true,
	"math/rand.Rand":          true,
}

// reachesKernelState reports whether t transitively contains one of the
// kernel state anchors. Struct fields, pointers, slices, arrays and maps
// are walked; function signatures and interfaces are opaque (a func
// value's captures are beyond static reach, and interfaces carry no
// field graph).
func reachesKernelState(t types.Type) bool {
	return reaches(t, make(map[types.Type]bool))
}

func reaches(t types.Type, visited map[types.Type]bool) bool {
	if t == nil || visited[t] {
		return false
	}
	visited[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && kernelStateAnchors[obj.Pkg().Path()+"."+obj.Name()] {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return reaches(u.Elem(), visited)
	case *types.Slice:
		return reaches(u.Elem(), visited)
	case *types.Array:
		return reaches(u.Elem(), visited)
	case *types.Map:
		return reaches(u.Key(), visited) || reaches(u.Elem(), visited)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if reaches(u.Field(i).Type(), visited) {
				return true
			}
		}
	}
	return false
}
