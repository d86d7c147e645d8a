package imgcodec_test

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	_ "dvc/internal/guest"
	_ "dvc/internal/hpcc"
	"dvc/internal/imgcodec"
	_ "dvc/internal/mpi"
	"dvc/internal/payload"
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

// checkpointRootDirectives are the STATE_MANIFEST.txt roots declared by
// //dvc:checkpoint-root rather than by imgcodec.Register.
var checkpointRootDirectives = []string{
	"dvc/internal/guest.Snapshot",
	"dvc/internal/tcp.StackSnapshot",
	"dvc/internal/vm.Image",
}

// TestRegisteredMatchesManifest: the codec's registered names are exactly
// the interface-payload roots STATE_MANIFEST.txt lists.
func TestRegisteredMatchesManifest(t *testing.T) {
	f, err := os.Open("../../STATE_MANIFEST.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var roots []string
	inRoots := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "["):
			inRoots = line == "[roots]"
		case inRoots && line != "":
			roots = append(roots, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	names, _ := payloads()
	want := append(append([]string(nil), names...), checkpointRootDirectives...)
	sort.Strings(want)
	sort.Strings(roots)
	if !reflect.DeepEqual(roots, want) {
		t.Fatalf("manifest roots and registered payloads differ:\nmanifest %v\nexpected %v", roots, want)
	}
}
