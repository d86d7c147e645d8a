package imgcodec_test

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dvc/internal/guest"
	_ "dvc/internal/hpcc"
	"dvc/internal/imgcodec"
	_ "dvc/internal/mpi"
	"dvc/internal/payload"
	"dvc/internal/tcp"
	"dvc/internal/vm"
	_ "dvc/internal/workload"
)

// payloads returns the registered payload types of the production
// packages (this package's own test types excluded), sorted by name.
func payloads() ([]string, map[string]reflect.Type) {
	all := imgcodec.Registered()
	var names []string
	for name := range all {
		if !strings.HasPrefix(name, "dvc/internal/imgcodec.") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, all
}

// filler builds values of registered types, which hold only the kinds
// the codec encodes. full fills every container with two elements;
// otherwise containers are empty but non-nil, which must decode as nil.
type filler struct {
	full  bool
	seed  int
	names []string
	types map[string]reflect.Type
}

func (f *filler) next() int { f.seed++; return f.seed }

func (f *filler) fill(v reflect.Value, depth int) {
	t := v.Type()
	if t == reflect.TypeOf(payload.Bytes{}) {
		if f.full {
			n := byte(f.next())
			v.Set(reflect.ValueOf(payload.FromChunks([]byte{n, 1}, []byte{n, 2, 3})))
		}
		return
	}
	switch t.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(f.next() % 100))
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64: // uint8: a []byte element
		v.SetUint(uint64(f.next() % 100))
	case reflect.Float64:
		v.SetFloat(float64(f.next()) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprint("s", f.next()))
	case reflect.Slice:
		if !f.full {
			v.Set(reflect.MakeSlice(t, 0, 0))
			return
		}
		v.Set(reflect.MakeSlice(t, 2, 2))
		for i := 0; i < 2; i++ {
			f.fill(v.Index(i), depth)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(t))
		if !f.full {
			return
		}
		for i := 0; i < 2; i++ {
			k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
			f.fill(k, depth)
			f.fill(e, depth)
			v.SetMapIndex(k, e)
		}
	case reflect.Pointer:
		p := reflect.New(t.Elem())
		f.fill(p.Elem(), depth)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f.fill(v.Field(i), depth)
		}
	case reflect.Interface:
		if depth >= 2 {
			return
		}
		for _, name := range f.names {
			if ct := f.types[name]; ct.Implements(t) {
				c := reflect.New(ct).Elem()
				f.fill(c, depth+1)
				v.Set(c)
				return
			}
		}
	}
}

// normalize rewrites v to what decoding yields: empty slices and maps
// become nil, ropes become one flat chunk.
func normalize(v reflect.Value) {
	t := v.Type()
	if t == reflect.TypeOf(payload.Bytes{}) {
		b := v.Interface().(payload.Bytes)
		v.Set(reflect.ValueOf(payload.Wrap(b.Flatten())))
		return
	}
	switch t.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
		}
		for i := 0; i < v.Len(); i++ {
			normalize(v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		iter := v.MapRange()
		for iter.Next() {
			e := reflect.New(t.Elem()).Elem()
			e.Set(iter.Value())
			normalize(e)
			v.SetMapIndex(iter.Key(), e)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			normalize(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			normalize(v.Field(i))
		}
	case reflect.Interface:
		if !v.IsNil() {
			c := reflect.New(v.Elem().Type()).Elem()
			c.Set(v.Elem())
			normalize(c)
			v.Set(c)
		}
	}
}

// TestRegisteredPayloadsRoundTrip: for every registered payload type,
// decode(encode(v)) equals v under the nil-for-empty rule, both for a
// value whose every container holds elements (interfaces filled with
// registered payloads) and for one whose containers are all empty.
func TestRegisteredPayloadsRoundTrip(t *testing.T) {
	names, types := payloads()
	if len(names) == 0 {
		t.Fatal("no registered payloads")
	}
	for _, name := range names {
		for _, full := range []bool{true, false} {
			mk := func() reflect.Value {
				f := &filler{full: full, names: names, types: types}
				v := reflect.New(types[name]).Elem()
				f.fill(v, 0)
				return v
			}
			in, want := mk(), mk()
			normalize(want)
			// Encode through an interface, as a checkpoint holds payloads.
			holder := struct{ P any }{in.Interface()}
			b, err := imgcodec.Append(nil, &holder)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var out struct{ P any }
			if err := imgcodec.Decode(b, &out); err != nil {
				t.Fatalf("%s (full=%v): %v", name, full, err)
			}
			if !reflect.DeepEqual(out.P, want.Interface()) {
				t.Errorf("%s (full=%v): round trip\n got %#v\nwant %#v", name, full, out.P, want.Interface())
			}
		}
	}
}

// manifestRoots are the STATE_MANIFEST.txt roots that are not registered
// payloads: the image types the codec encodes or hashes directly.
var manifestRoots = []any{&guest.Snapshot{}, &tcp.StackSnapshot{}, &vm.Image{}}

var updateGolden = flag.Bool("update-golden", false, "rewrite STATE_MANIFEST.txt from the codec's view of the types")

const manifestHeader = `# STATE_MANIFEST.txt — checkpoint state closure, generated by the image codec's tests.
# Every (type, field) below participates in a checkpoint image: it is
# reachable from a manifest root or an imgcodec.Register payload.
# Regenerate with: go test ./internal/imgcodec -run TestRegisteredMatchesManifest -update-golden
# go test ./... diffs this file; review changes as checkpoint-format changes.
`

// TestRegisteredMatchesManifest: STATE_MANIFEST.txt is the codec's view
// of checkpoint state. Its roots are manifestRoots and every registered
// payload, each of which must compile under the codec's rules; its state
// is every (type, field) their plans reach.
func TestRegisteredMatchesManifest(t *testing.T) {
	names, types := payloads()
	roots := make(map[string]reflect.Type)
	for _, name := range names {
		roots[name] = types[name]
	}
	for _, v := range manifestRoots {
		rt := reflect.TypeOf(v).Elem()
		roots[rt.PkgPath()+"."+rt.Name()] = rt
	}
	seen := make(map[reflect.Type]bool)
	state := make(map[string]bool)
	for name, rt := range roots {
		if _, err := imgcodec.SchemaHash(reflect.New(rt).Interface()); err != nil {
			t.Errorf("root %s: %v", name, err)
		}
		walkState(rt, seen, state)
	}
	got := manifestHeader + "\n[roots]\n" + sortedLines(roots) + "\n[state]\n" + sortedLines(state)

	const path = "../../STATE_MANIFEST.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("STATE_MANIFEST.txt is stale (+ missing from it, - no longer state); review the change as a checkpoint-format change and rerun with -update-golden:\n%s",
			lineDiff(string(want), got))
	}
}

// walkState adds a manifest line for every struct field reachable from t
// through pointers, slices, maps and fields. payload.Bytes is encoded
// whole, and an interface's payloads are roots of their own.
func walkState(t reflect.Type, seen map[reflect.Type]bool, state map[string]bool) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if seen[t] || t == reflect.TypeFor[payload.Bytes]() {
		return
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Slice:
		walkState(t.Elem(), seen, state)
	case reflect.Map:
		walkState(t.Key(), seen, state)
		walkState(t.Elem(), seen, state)
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if f.Name == "_" {
				continue
			}
			line := goTypeString(t) + "." + f.Name + "\t" + goTypeString(f.Type)
			if f.Type.Kind() == reflect.Interface {
				line += "\t(interface: concrete payloads are imgcodec.Register roots)"
			} else {
				walkState(f.Type, seen, state)
			}
			state[line] = true
		}
	}
}

// goTypeString renders t as go/types prints it: named types qualified by
// package path, and uint8 as byte (the codec takes it only in []byte).
func goTypeString(t reflect.Type) string {
	switch {
	case t.PkgPath() != "":
		return t.PkgPath() + "." + t.Name()
	case t == reflect.TypeFor[byte]():
		return "byte"
	case t.Name() != "":
		return t.Name()
	}
	switch t.Kind() {
	case reflect.Pointer:
		return "*" + goTypeString(t.Elem())
	case reflect.Slice:
		return "[]" + goTypeString(t.Elem())
	case reflect.Map:
		return "map[" + goTypeString(t.Key()) + "]" + goTypeString(t.Elem())
	}
	return t.String()
}

// sortedLines renders a set's keys one per line, sorted.
func sortedLines[V any](set map[string]V) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n") + "\n"
}

// lineDiff lists the lines only gen has (+) and those only file has (-).
func lineDiff(file, gen string) string {
	fileLines, genLines := strings.Split(file, "\n"), strings.Split(gen, "\n")
	var out []string
	for _, l := range genLines {
		if !slices.Contains(fileLines, l) {
			out = append(out, "+ "+l)
		}
	}
	for _, l := range fileLines {
		if !slices.Contains(genLines, l) {
			out = append(out, "- "+l)
		}
	}
	return strings.Join(out, "\n")
}

// Leaves the codec rejects, for TestRegisterNamesFieldPath.
type (
	hiddenLeaf   struct{ n int }
	funcLeaf     struct{ F func() }
	chanLeaf     struct{ C chan int }
	arrayKeyLeaf struct{ M map[[2]int]int }
)

// viaPtr, viaSlice and viaMap hold a leaf three levels down.
type (
	viaPtr[L any]   struct{ P *viaSlice[L] }
	viaSlice[L any] struct{ S []viaMap[L] }
	viaMap[L any]   struct{ M map[int]L }
)

// TestRegisterNamesFieldPath: a payload whose closure holds a field the
// codec rejects panics in Register, naming the path of struct fields
// that reaches it, through pointers, slices and maps.
func TestRegisterNamesFieldPath(t *testing.T) {
	for _, c := range []struct {
		v    any
		leaf string
	}{
		{&viaPtr[hiddenLeaf]{}, "hiddenLeaf.n is unexported and would not survive save/restore"},
		{&viaPtr[funcLeaf]{}, "funcLeaf.F: cannot encode func() of kind func"},
		{&viaPtr[chanLeaf]{}, "chanLeaf.C: cannot encode chan int of kind chan"},
		{&viaPtr[arrayKeyLeaf]{}, "arrayKeyLeaf.M: map map[[2]int]int: cannot encode keys of kind array"},
	} {
		top := reflect.TypeOf(c.v).Elem()
		mid := top.Field(0).Type.Elem()
		low := mid.Field(0).Type.Elem()
		want := fmt.Sprintf("imgcodec: %s.P: %s.S: %s.M: imgcodec_test.%s", top, mid, low, c.leaf)
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			imgcodec.Register(c.v)
			return
		}()
		if got != want {
			t.Errorf("Register(%T) panicked with\n%s\nwant\n%s", c.v, got, want)
		}
	}
}
