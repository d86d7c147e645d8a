package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// GobSafe vets the types that flow into the two checkpoint serializers:
// the image codec (dvc/internal/imgcodec), under every LSC checkpoint
// image, and encoding/gob, which internal/ckpt uses to size
// application-level checkpoints. Both lose state in ways a test of the
// happy path does not show:
//
//  1. Unexported struct fields. gob silently drops them; imgcodec refuses
//     the type at run time, mid-checkpoint. Either way a field that
//     cannot travel is guest state that does not survive save/restore —
//     the exact bug class LSC exists to prevent.
//  2. func and chan fields cannot be encoded at all; depending on where
//     they sit, the failure is either a runtime error mid-checkpoint or a
//     silently nil field after restore.
//
// The analyzer inspects the static type of every argument to
// imgcodec.Register, Append, Encode and Decode, and to gob.Register,
// gob.RegisterName, Encoder.Encode and Decoder.Decode, and walks its
// struct graph. Types that own their wire format opt out: for gob, those
// implementing gob.GobEncoder or encoding.BinaryMarshaler; for imgcodec,
// the types it encodes natively (payload.Bytes).
var GobSafe = &Analyzer{
	Name: "gobsafe",
	Doc: "flag unexported, func- or chan-typed fields in types passed to " +
		"imgcodec or encoding/gob (checkpoint state must round-trip losslessly)",
	Run: runGobSafe,
}

// codec describes one serializer the checkpoint analyzers vet.
type codec struct {
	name       string // as it appears in diagnostics
	pkg        string // import path of its entry points
	unexported string // diagnostic for an unexported field (one %s: the field)
	// ownsFormat reports whether a type's wire format is the type's own
	// (or the codec's) business, which ends the field walk there.
	ownsFormat func(t types.Type) bool
	// orderedKeys: map keys must be of integer or string kind, which the
	// codec sorts to make the bytes deterministic.
	orderedKeys bool
}

var (
	gobCodec = &codec{
		name:       "gob",
		pkg:        "encoding/gob",
		unexported: "gob silently drops unexported field %s: checkpoint state would not survive save/restore (export it, or implement GobEncoder/GobDecoder)",
		ownsFormat: hasGobWireFormat,
	}
	imageCodec = &codec{
		name:        "imgcodec",
		pkg:         "dvc/internal/imgcodec",
		unexported:  "imgcodec rejects unexported field %s: checkpoint state would not survive save/restore (export it)",
		ownsFormat:  isImageCodecNative,
		orderedKeys: true,
	}
)

func runGobSafe(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || isConversion(info, call) {
				return true
			}
			c, arg, ok := codecPayload(info, call)
			if !ok {
				return true
			}
			t := info.TypeOf(arg)
			if t == nil {
				return true
			}
			checkCodecType(pass, c, call.Pos(), t)
			return true
		})
	}
	return nil
}

// codecPayload returns the codec and the argument expression whose type
// will be encoded, if call is one of the serializers' entry points.
func codecPayload(info *types.Info, call *ast.CallExpr) (*codec, ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil, false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return nil, nil, false
	}
	argAt := func(c *codec, i, n int) (*codec, ast.Expr, bool) {
		if len(call.Args) != n {
			return nil, nil, false
		}
		return c, call.Args[i], true
	}
	switch obj.Pkg().Path() {
	case imageCodec.pkg:
		switch obj.Name() {
		case "Register":
			return argAt(imageCodec, 0, 1)
		case "Append", "Encode", "Decode":
			return argAt(imageCodec, 1, 2)
		}
	case gobCodec.pkg:
		switch obj.Name() {
		case "Register":
			return argAt(gobCodec, 0, 1)
		case "RegisterName":
			return argAt(gobCodec, 1, 2)
		case "Encode", "Decode", "EncodeValue", "DecodeValue":
			// Methods on *gob.Encoder / *gob.Decoder.
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				return argAt(gobCodec, 0, 1)
			}
		}
	}
	return nil, nil, false
}

// checkCodecType walks the struct graph reachable from t and reports
// fields the codec would drop or reject.
func checkCodecType(pass *Pass, c *codec, pos token.Pos, t types.Type) {
	visited := make(map[types.Type]bool)
	var walk func(t types.Type, path string)
	walk = func(t types.Type, path string) {
		if visited[t] {
			return
		}
		visited[t] = true
		t = deref(t)
		if c.ownsFormat(t) {
			return
		}
		named, _ := t.(*types.Named)
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			// Non-struct payloads (slices, maps, basics, interfaces):
			// descend through containers looking for func/chan elements.
			switch u := t.Underlying().(type) {
			case *types.Slice:
				walk(u.Elem(), path)
			case *types.Array:
				walk(u.Elem(), path)
			case *types.Map:
				walk(u.Key(), path)
				walk(u.Elem(), path)
			case *types.Signature:
				pass.Reportf(pos, "%s cannot encode func value%s", c.name, at(path))
			case *types.Chan:
				pass.Reportf(pos, "%s cannot encode chan value%s", c.name, at(path))
			}
			return
		}
		typeName := "struct"
		if named != nil {
			typeName = named.Obj().Name()
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			fieldPath := typeName + "." + f.Name()
			if !f.Exported() && !f.Embedded() {
				pass.Reportf(pos, c.unexported, fieldPath)
				continue
			}
			if bad, kind := containsBadKind(c, f.Type(), make(map[types.Type]bool)); bad {
				pass.Reportf(pos,
					"field %s contains a %s, which %s cannot encode: checkpointing this type will fail or restore nil",
					fieldPath, kind, c.name)
				continue
			}
			// Recurse into exported struct-typed fields so nested
			// checkpoint state is held to the same rules.
			walk(f.Type(), fieldPath)
		}
	}
	walk(t, "")
}

func at(path string) string {
	if path == "" {
		return ""
	}
	return " at " + path
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

// hasGobWireFormat reports whether t (or *t) provides its own gob or
// binary encoding, making field-level inspection moot.
func hasGobWireFormat(t types.Type) bool {
	for _, name := range []string{"GobEncode", "MarshalBinary"} {
		for _, recv := range []types.Type{t, types.NewPointer(t)} {
			obj, _, _ := types.LookupFieldOrMethod(recv, true, nil, name)
			if fn, ok := obj.(*types.Func); ok {
				sig := fn.Type().(*types.Signature)
				if sig.Params().Len() == 0 && sig.Results().Len() == 2 {
					return true
				}
			}
		}
	}
	return false
}

// isImageCodecNative reports whether imgcodec encodes t itself rather
// than field by field. Keep in step with the codec's native types
// (internal/imgcodec).
func isImageCodecNative(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "dvc/internal/payload" && named.Obj().Name() == "Bytes"
}

// containsBadKind reports whether t transitively contains a func or chan
// (through pointers, slices, arrays, maps and struct fields), or a map
// key the codec cannot order, returning a description of the offender.
func containsBadKind(c *codec, t types.Type, visited map[types.Type]bool) (bool, string) {
	if visited[t] {
		return false, ""
	}
	visited[t] = true
	switch u := t.Underlying().(type) {
	case *types.Signature:
		return true, "func"
	case *types.Chan:
		return true, "chan"
	case *types.Pointer:
		return containsBadKind(c, u.Elem(), visited)
	case *types.Slice:
		return containsBadKind(c, u.Elem(), visited)
	case *types.Array:
		return containsBadKind(c, u.Elem(), visited)
	case *types.Map:
		if b, ok := u.Key().Underlying().(*types.Basic); c.orderedKeys &&
			(!ok || b.Info()&(types.IsInteger|types.IsString) == 0) {
			return true, "map keyed by " + types.TypeString(u.Key(), nil)
		}
		if bad, kind := containsBadKind(c, u.Key(), visited); bad {
			return true, kind
		}
		return containsBadKind(c, u.Elem(), visited)
	case *types.Struct:
		if c.ownsFormat(t) {
			return false, ""
		}
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if !f.Exported() && !f.Embedded() {
				continue // reported separately by the unexported check
			}
			if bad, kind := containsBadKind(c, f.Type(), visited); bad {
				return true, fmt.Sprintf("%s (via %s)", kind, f.Name())
			}
		}
	}
	return false, ""
}
