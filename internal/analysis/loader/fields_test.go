package loader_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dvc/internal/analysis"
)

// The cases a field may fall under and still have no reader. An
// application result's entry names the test that asserts on it:
// appResult + ": TestName".
const (
	mapKey       = "map-key component"
	layoutMirror = "layout mirror of a runtime type"
	appResult    = "application result"
)

// keptUnread are the struct fields that no non-test code reads, each
// with the case it falls under. A map key is read whole, by hashing and
// ==, which TestEveryFieldIsRead does not count as reading its fields.
var keptUnread = map[string]string{
	"dvc/internal/vm.ChunkKey.Lineage":        mapKey,
	"dvc/internal/vm.ChunkKey.Index":          mapKey,
	"dvc/internal/vm.ChunkKey.Offset":         mapKey,
	"dvc/internal/vm.ChunkKey.Size":           mapKey,
	"dvc/internal/imgcodec.sliceHeader.cap":   layoutMirror,
	"dvc/internal/hpcc.HPL.Finished":          appResult + ": TestHPLSolvesCorrectly",
	"dvc/internal/hpcc.PTRANS.Finished":       appResult + ": TestPTRANSVerifies",
	"dvc/internal/hpcc.RandomAccess.Finished": appResult + ": TestRandomAccessVerifies",
	"dvc/internal/hpcc.Halo.StartWall":        appResult + ": TestHaloExchange",
	"dvc/internal/hpcc.Halo.EndWall":          appResult + ": TestHaloExchange",
	"dvc/internal/hpcc.SeqJob.StartJiff":      appResult + ": TestSeqJobTiming",
	"dvc/internal/hpcc.SeqJob.EndJiff":        appResult + ": TestSeqJobTiming",
}

// TestEveryFieldIsRead is TestEveryExportHasANonTestCaller applied to
// state. Over the same non-test load of both modules (loadModules), it
// fails on every field of a struct type declared in the dvc module that
// no non-test code reads, unless keptUnread lists it with its reason,
// and on every stale keptUnread entry. A read is a field selection that
// is not the direct target of = or :=; each step of an embedded path
// counts. The root facade and the types it re-exports are public API and
// are skipped, and so are embedded fields and fields with a struct tag,
// which encoding/json reads.
func TestEveryFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the two-module field scan in -short mode")
	}
	unread := map[string]bool{}
	for _, key := range unreadFields(loadModules(t)) {
		unread[key] = true
		if _, ok := keptUnread[key]; !ok {
			t.Errorf("field %s is never read: delete it, or list it in keptUnread with its reason", key)
		}
	}
	for key, reason := range keptUnread {
		if !unread[key] {
			t.Errorf("keptUnread[%q] is stale: it is read or gone", key)
		}
		if reason != mapKey && reason != layoutMirror && !strings.HasPrefix(reason, appResult+": Test") {
			t.Errorf("keptUnread[%q] gives %q, not one of the three reasons", key, reason)
		}
	}
}

// unreadFields returns the keys (import path, type, field) of the fields
// declared in the dvc module's non-root packages that no selector in pkgs
// reads.
func unreadFields(pkgs []*analysis.Package) []string {
	declared := map[string]bool{}
	read := map[string]bool{}
	exempt := map[string]bool{} // named types the root facade re-exports
	for _, pkg := range pkgs {
		if pkg.Types.Path() != "dvc" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					exempt[typeKey(n)] = true
				}
			}
		}
	}
	for _, pkg := range pkgs {
		keys := fieldKeys(pkg)
		if analysis.InModule(pkg.Types.Path()) && pkg.Types.Path() != "dvc" && !strings.HasPrefix(pkg.Types.Path(), "dvc/perfbench") {
			for _, k := range keys {
				if !exempt[k.owner] && !k.skip {
					declared[k.key] = true
				}
			}
		}
		for _, f := range pkg.Files {
			// Inspect visits an assignment before its left-hand side.
			targets := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) {
					for _, lhs := range as.Lhs {
						targets[lhs] = true
					}
				}
				se, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				sel, ok := pkg.Info.Selections[se]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				path := selectionKeys(keys, sel)
				if targets[se] {
					path = path[:len(path)-1] // the last step is written, not read
				}
				for _, k := range path {
					read[k] = true
				}
				return true
			})
		}
	}
	var out []string
	for key := range declared {
		if !read[key] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// fieldKey names one field declared in a package. owner is the named type
// whose struct holds it, directly or through anonymous structs; skip
// marks embedded and tagged fields.
type fieldKey struct {
	key, owner string
	skip       bool
}

// fieldKeys names every struct field a package declares: fields of a
// named struct type as path.Type.Field, fields of an anonymous struct
// nested in one as path.Type.Field.Sub, and fields of any other
// anonymous struct by the struct's file and line.
func fieldKeys(pkg *analysis.Package) map[*types.Var]fieldKey {
	out := map[*types.Var]fieldKey{}
	var walk func(st *types.Struct, prefix, owner string)
	walk = func(st *types.Struct, prefix, owner string) {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, done := out[f]; done {
				continue
			}
			k := fieldKey{key: prefix + "." + f.Name(), owner: owner, skip: f.Embedded() || st.Tag(i) != ""}
			out[f] = k
			if inner := anonStruct(f.Type()); inner != nil {
				walk(inner, k.key, owner)
			}
		}
	}
	for _, obj := range pkg.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok {
			if st, ok := n.Underlying().(*types.Struct); ok {
				walk(st, typeKey(n), typeKey(n))
			}
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if se, ok := n.(*ast.StructType); ok {
				if st, ok := pkg.Info.TypeOf(se).(*types.Struct); ok {
					pos := pkg.Fset.Position(se.Pos())
					walk(st, fmt.Sprintf("%s.struct@%s:%d", pkg.Types.Path(), filepath.Base(pos.Filename), pos.Line), "")
				}
			}
			return true
		})
	}
	return out
}

// selectionKeys returns the key of every field a field selection steps
// through, the selected field last. A field of a named struct type is
// keyed from the type, so that a field seen through export data has the
// key of its declaration; a field of an anonymous struct is keyed through
// keys, which holds the package's own declarations, or else from the
// step before it. A step it cannot key is "".
func selectionKeys(keys map[*types.Var]fieldKey, sel *types.Selection) []string {
	var out []string
	t := sel.Recv()
	for _, i := range sel.Index() {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st := t.Underlying().(*types.Struct)
		f := st.Field(i)
		key := ""
		if n, ok := t.(*types.Named); ok {
			key = typeKey(n) + "." + f.Name()
		} else if k, ok := keys[f.Origin()]; ok {
			key = k.key
		} else if len(out) > 0 && out[len(out)-1] != "" {
			key = out[len(out)-1] + "." + f.Name()
		}
		out = append(out, key)
		t = f.Type()
	}
	return out
}

// typeKey names a named type by import path and name.
func typeKey(n *types.Named) string {
	obj := n.Origin().Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// anonStruct returns the anonymous struct a field's type holds, directly
// or as the element of a pointer, slice, array or map, or nil.
func anonStruct(t types.Type) *types.Struct {
	for {
		switch u := t.(type) {
		case *types.Struct:
			return u
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return nil
		}
	}
}
