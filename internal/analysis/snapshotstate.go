package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// SnapshotState is the checkpoint analyzer. It starts from the
// checkpoint roots — types marked with a //dvc:checkpoint-root directive
// (guest.Snapshot, tcp.StackSnapshot, vm.Image, ...), every type
// registered with imgcodec.Register (the concrete payloads that travel
// behind interface fields), and the static type of every non-interface
// argument to imgcodec.Append, Encode and Decode — and computes the full
// reachability closure of their field graphs through structs, pointers,
// slices and maps. Every field in the closure must round-trip
// through the image codec: no unexported fields (embedded ones
// included), and nothing anywhere in a field's type that the codec does
// not encode — a func, chan, array, a scalar of a kind other than bool,
// int, int64, uint16/32/64, float64 and string, or a map key other than
// those integer kinds. A []byte is encoded whole, so its uint8 elements
// are fine.
//
// The point of the closure view: checkpoint state accretes far from the
// encode call. A field added to tcp.ConnSnapshot is serialized because
// guest.Snapshot reaches it, even though no codec call in internal/tcp
// ever mentions it, and a codec call that passes an interface value
// names no type at all. The closure is also what the driver emits as
// STATE_MANIFEST.txt (see StateManifest), so every (type, field) that
// participates in a checkpoint is visible in review when it changes.
//
// Types the codec encodes natively (payload.Bytes) terminate the walk.
// Interface-typed fields and arguments cannot be traversed statically;
// their concrete payloads are covered by the imgcodec.Register roots
// instead.
var SnapshotState = &Analyzer{
	Name: "snapshotstate",
	Doc: "compute the reachability closure of checkpoint roots " +
		"(//dvc:checkpoint-root types and imgcodec payloads) and flag " +
		"fields the image codec would reject anywhere in it",
	Run: runSnapshotState,
}

// stateRoot is one entry point into the checkpoint state graph.
type stateRoot struct {
	pos  token.Pos // where to report problems: the root declaration or codec call
	name string    // display name for diagnostics
	typ  types.Type
}

func runSnapshotState(pass *Pass) error {
	for _, root := range collectStateRoots(pass.TypesInfo, pass.Files) {
		walkStateGraph(root.typ, func(path string, problem string) {
			pass.Reportf(root.pos, "checkpoint state reachable from %s: %s %s", root.name, path, problem)
		}, nil)
	}
	return nil
}

// collectStateRoots gathers the package's checkpoint roots: type
// declarations carrying //dvc:checkpoint-root and the static types of
// imgcodec.Register, Append, Encode and Decode arguments that are not
// interfaces. The result is in source order (declarations first), which
// makes diagnostic order deterministic.
func collectStateRoots(info *types.Info, files []*ast.File) []stateRoot {
	var roots []stateRoot
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasDirective(gd.Doc, CheckpointRootDirective) && !hasDirective(ts.Doc, CheckpointRootDirective) {
					continue
				}
				if obj, ok := info.Defs[ts.Name].(*types.TypeName); ok {
					roots = append(roots, stateRoot{pos: ts.Name.Pos(), name: obj.Name(), typ: obj.Type()})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg, ok := codecPayload(info, call)
			if !ok {
				return true
			}
			t := info.TypeOf(arg)
			if t == nil {
				return true
			}
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				return true // opaque: its concrete payloads are Register roots
			}
			roots = append(roots, stateRoot{pos: call.Pos(), name: typeDisplayName(t), typ: t})
			return true
		})
	}
	return roots
}

// codecPayload returns the argument whose type the image codec will
// encode, if call is imgcodec.Register, Append, Encode or Decode.
func codecPayload(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "dvc/internal/imgcodec" {
		return nil, false
	}
	switch obj.Name() {
	case "Register":
		if len(call.Args) == 1 {
			return call.Args[0], true
		}
	case "Append", "Encode", "Decode":
		if len(call.Args) == 2 {
			return call.Args[1], true
		}
	}
	return nil, false
}

// typeDisplayName names a root type for diagnostics ("*HPL" -> "HPL").
func typeDisplayName(t types.Type) string {
	t = deref(t)
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// walkStateGraph traverses the checkpoint state graph rooted at t. For
// every problematic field it calls report with a short field path and
// the problem text; when entries is non-nil it records one manifest line
// per (struct type, field) visited.
func walkStateGraph(t types.Type, report func(path, problem string), entries map[string]bool) {
	visited := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || visited[t] {
			return
		}
		visited[t] = true
		if d := deref(t); d != t {
			t = d
			if visited[t] {
				return
			}
			visited[t] = true
		}
		if isImageCodecNative(t) {
			return
		}
		named, _ := t.(*types.Named)
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			switch u := t.Underlying().(type) {
			case *types.Slice:
				walk(u.Elem())
			case *types.Map:
				walk(u.Key())
				walk(u.Elem())
			}
			return
		}
		owner := "struct"
		if named != nil {
			owner = named.Obj().Name()
			if pkg := named.Obj().Pkg(); pkg != nil {
				owner = pkg.Path() + "." + owner
			}
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			fieldPath := owner + "." + f.Name()
			_, isIface := f.Type().Underlying().(*types.Interface)
			if entries != nil {
				line := fieldPath + "\t" + types.TypeString(f.Type(), nil)
				if isIface {
					line += "\t(interface: concrete payloads are imgcodec.Register roots)"
				}
				entries[line] = true
			}
			if !f.Exported() {
				if f.Embedded() {
					if report != nil {
						report(fieldPath, "is an unexported embedded field, which the image codec rejects (promote it to an exported field or type)")
					}
				} else if report != nil {
					report(fieldPath, "is unexported: the image codec rejects it, so this state would not survive save/restore (export it)")
				}
				continue
			}
			if bad, kind := containsBadKind(f.Type(), make(map[types.Type]bool)); bad {
				if report != nil {
					report(fieldPath, fmt.Sprintf("contains %s, which imgcodec cannot encode: checkpointing would fail or restore nil", kind))
				}
				continue
			}
			if isIface {
				continue // opaque: concrete payloads enter via imgcodec.Register roots
			}
			walk(f.Type())
		}
	}
	walk(t)
}

// StateManifest computes the checkpoint state manifest over a set of
// type-checked packages: the sorted, deduplicated list of every root and
// every (type, field) in the reachability closure. The output depends
// only on the type graph — no positions, no map order — so the same
// source always produces byte-identical bytes, and the committed
// STATE_MANIFEST.txt golden file diffs meaningfully in review when
// checkpoint state is added or removed.
func StateManifest(pkgs []*Package) []byte {
	rootSet := make(map[string]bool)
	entrySet := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, root := range collectStateRoots(pkg.Info, pkg.Files) {
			name := typeDisplayName(root.typ)
			if named, ok := deref(root.typ).(*types.Named); ok {
				if p := named.Obj().Pkg(); p != nil {
					name = p.Path() + "." + name
				}
			}
			rootSet[name] = true
			walkStateGraph(root.typ, nil, entrySet)
		}
	}
	var b strings.Builder
	b.WriteString("# STATE_MANIFEST.txt — checkpoint state closure, generated by dvclint.\n")
	b.WriteString("# Every (type, field) below participates in a checkpoint image: it is\n")
	b.WriteString("# reachable from a //dvc:checkpoint-root type or an imgcodec.Register payload.\n")
	b.WriteString("# Regenerate with: go run ./cmd/dvclint -write-manifest STATE_MANIFEST.txt ./...\n")
	b.WriteString("# CI diffs this file; review changes as checkpoint-format changes.\n")
	b.WriteString("\n[roots]\n")
	for _, line := range sortedKeys(rootSet) {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteString("\n[state]\n")
	for _, line := range sortedKeys(entrySet) {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func deref(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// isImageCodecNative reports whether imgcodec encodes t itself rather
// than field by field. Keep in step with the codec's native types
// (internal/imgcodec).
func isImageCodecNative(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "dvc/internal/payload" && named.Obj().Name() == "Bytes"
}

// codecBasic lists the basic kinds imgcodec encodes; map keys may be
// only its integer kinds. Keep in step with the codec's kinds
// (internal/imgcodec).
var codecBasic = map[types.BasicKind]bool{
	types.Bool: true, types.Int: true, types.Int64: true, types.Uint16: true,
	types.Uint32: true, types.Uint64: true, types.Float64: true, types.String: true,
}

// containsBadKind reports whether t transitively contains something the
// image codec does not encode (through pointers, slices, maps and struct
// fields): a func, chan or array, a basic kind outside codecBasic, or a
// map key that is not one of its integer kinds. It returns a description
// of the offender.
func containsBadKind(t types.Type, visited map[types.Type]bool) (bool, string) {
	if visited[t] {
		return false, ""
	}
	visited[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if !codecBasic[u.Kind()] {
			name := types.Typ[u.Kind()].Name()
			if strings.HasPrefix(name, "i") {
				return true, "an " + name
			}
			return true, "a " + name
		}
	case *types.Signature:
		return true, "a func"
	case *types.Chan:
		return true, "a chan"
	case *types.Array:
		return true, "an array " + types.TypeString(t, nil)
	case *types.Pointer:
		return containsBadKind(u.Elem(), visited)
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Uint8 {
			return false, "" // a []byte is encoded whole
		}
		return containsBadKind(u.Elem(), visited)
	case *types.Map:
		if b, ok := u.Key().Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 || !codecBasic[b.Kind()] {
			return true, "a map keyed by " + types.TypeString(u.Key(), nil)
		}
		return containsBadKind(u.Elem(), visited)
	case *types.Struct:
		if isImageCodecNative(t) {
			return false, ""
		}
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() && !f.Embedded() {
				continue // reported separately by the unexported check
			}
			if bad, kind := containsBadKind(f.Type(), visited); bad {
				return true, fmt.Sprintf("%s (via %s)", kind, f.Name())
			}
		}
	}
	return false, ""
}
