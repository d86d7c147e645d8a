package imgcodec

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"dvc/internal/payload"
)

type shape interface{ area() int }

type square struct{ Side int }

func (s *square) area() int { return s.Side * s.Side }

type notAShape struct{ N int }

// kitchen holds every kind the codec encodes.
type kitchen struct {
	B     bool
	I     int
	I64   int64
	U16   uint16
	U32   uint32
	U64   uint64
	F64   float64
	S     string
	Raw   []byte
	Fs    []float64
	Us    []uint16
	Ptr   *square
	Nil   *square
	M     map[int][]float64
	UM    map[uint32]string
	Rope  payload.Bytes
	Shape shape
	None  shape
	Nest  []kitchenRow
}

type kitchenRow struct {
	Name string
	Vals []int64
}

type withHidden struct {
	Visible int
	hidden  int
}

type list struct {
	V    int
	Next *list
}

func init() {
	Register(&square{})
	Register(&notAShape{})
}

func fullKitchen() *kitchen {
	return &kitchen{
		B: true, I: -1 << 40, I64: math.MinInt64, U16: 65535, U32: math.MaxUint32, U64: math.MaxUint64,
		F64: math.Pi, S: "héllo",
		Raw:   []byte{0, 1, 2, 255},
		Fs:    []float64{math.Copysign(0, -1), math.Inf(1), 2.5},
		Us:    []uint16{1, 300},
		Ptr:   &square{Side: 3},
		M:     map[int][]float64{9: {1}, -2: {2, 3}, 4: nil},
		UM:    map[uint32]string{7: "b", 3: "a"},
		Rope:  payload.FromChunks([]byte("hello, "), []byte("world")),
		Shape: &square{Side: 4},
		Nest:  []kitchenRow{{Name: "r0", Vals: []int64{5, -5}}, {}},
	}
}

func roundTrip(t *testing.T, in any, out any) []byte {
	t.Helper()
	b, err := Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Decode(b, out); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRoundTripAllKinds(t *testing.T) {
	in := fullKitchen()
	var out kitchen
	roundTrip(t, in, &out)
	want := fullKitchen()
	want.M[4] = nil // empty map values decode as nil, as they were
	want.Rope = payload.Wrap([]byte("hello, world"))
	if !reflect.DeepEqual(&out, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, *want)
	}
	if !math.Signbit(out.Fs[0]) {
		t.Fatal("-0 in a slice lost its sign")
	}
}

// TestRopeRoundTrip: a rope travels as its content and decodes into one
// fresh chunk that does not alias the encoded bytes.
func TestRopeRoundTrip(t *testing.T) {
	in := struct{ Body payload.Bytes }{payload.FromChunks([]byte("hello, "), []byte("world"))}
	var out struct{ Body payload.Bytes }
	b := roundTrip(t, &in, &out)
	if !out.Body.Equal(in.Body) || out.Body.NumChunks() != 1 {
		t.Fatalf("round trip: %v chunks=%d", out.Body, out.Body.NumChunks())
	}
	for i := range b {
		b[i] = 'x'
	}
	if string(out.Body.Flatten()) != "hello, world" {
		t.Fatal("decoded rope aliases the encoded bytes")
	}
}

// TestEmptyDecodesNil: empty slices, maps and ropes decode as nil, and a
// -0 struct field as +0, as the package comment states.
func TestEmptyDecodesNil(t *testing.T) {
	in := &kitchen{Raw: []byte{}, Fs: []float64{}, Us: []uint16{}, M: map[int][]float64{}, UM: map[uint32]string{},
		Rope: payload.FromChunks(), Nest: []kitchenRow{}, F64: math.Copysign(0, -1)}
	var out kitchen
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(out, kitchen{}) {
		t.Fatalf("empty values: %+v", out)
	}
	if math.Signbit(out.F64) {
		t.Fatal("-0 struct field decoded as -0, want +0")
	}
}

// TestDeterministicBytes: map entries are written in key order, so equal
// values always encode to equal bytes.
func TestDeterministicBytes(t *testing.T) {
	first, err := Append(nil, fullKitchen())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := Append(nil, fullKitchen())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("two encodes of equal values differ")
		}
	}
}

func TestRecursiveType(t *testing.T) {
	in := &list{V: 1, Next: &list{V: 2, Next: &list{V: 3}}}
	var out list
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(&out, in) {
		t.Fatalf("list round trip: %+v", out)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Append(nil, &withHidden{}); err == nil || !strings.Contains(err.Error(), "unexported") {
		t.Fatalf("unexported field: %v", err)
	}
	if _, err := Append(nil, &struct{ F func() }{}); err == nil {
		t.Fatal("func field encoded")
	}
	if _, err := Append(nil, &struct{ M map[[2]int]int }{}); err == nil {
		t.Fatal("map with array keys encoded")
	}
	type unregistered struct{ N int }
	var s struct{ Any any }
	s.Any = unregistered{1}
	if _, err := Append(nil, &s); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("unregistered payload: %v", err)
	}
	if _, err := Append(nil, kitchen{}); err == nil {
		t.Fatal("non-pointer accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := Append(nil, fullKitchen())
	if err != nil {
		t.Fatal(err)
	}
	var out kitchen
	for n := 0; n < len(good); n++ {
		if err := Decode(good[:n], &out); err == nil {
			t.Fatalf("decoded a %d-byte prefix of a %d-byte value", n, len(good))
		}
	}
	if err := Decode(append(good, 0), &out); err == nil {
		t.Fatal("trailing byte accepted")
	}

	cases := map[string]struct {
		src []byte
		v   any
	}{
		"bad bool":        {[]byte{2}, new(bool)},
		"uint16 overflow": {binary.AppendUvarint(nil, 1<<16), new(uint16)},
		"huge slice":      {binary.AppendUvarint(nil, 1<<62), new([]int)},
		"huge string":     {binary.AppendUvarint(nil, 1<<40), new(string)},
		"huge map":        {binary.AppendUvarint(nil, 1<<40), new(map[int]int)},
		"bad presence":    {[]byte{7}, new(*square)},
		"unsorted map":    {[]byte{2, 4, 0, 2, 0}, new(map[int]int)},
		"unregistered":    {append([]byte{3}, "xyz"...), new(shape)},
		"plan hash":       {iface("dvc/internal/imgcodec.square", 0xdeadbeef, 1, 2), new(shape)},
		"wrong interface": {iface("dvc/internal/imgcodec.notAShape", hash32(describe(reflect.TypeOf(&notAShape{}), nil)), 1, 2), new(shape)},
	}
	for name, c := range cases {
		if err := Decode(c.src, c.v); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestDroppedKindsRejected: the codec encodes only the kinds images
// hold. Append and Decode of any other kind, at the top or nested, fail
// with an error naming it.
func TestDroppedKindsRejected(t *testing.T) {
	for _, c := range []struct {
		v    any
		kind string
	}{
		{new([3]int), "array"},
		{new(float32), "float32"},
		{new(int8), "int8"},
		{new(int16), "int16"},
		{new(int32), "int32"},
		{new(uint), "uint"},
		{new(uint8), "uint8"},
		{new(uintptr), "uintptr"},
		{new(map[string]int), "string"},
		{new(struct{ Rows []struct{ F float32 } }), "float32"},
	} {
		if _, err := Append(nil, c.v); err == nil || !strings.Contains(err.Error(), "kind "+c.kind) {
			t.Errorf("Append(%T): %v, want an error naming kind %s", c.v, err, c.kind)
		}
		if err := Decode([]byte{0}, c.v); err == nil || !strings.Contains(err.Error(), "kind "+c.kind) {
			t.Errorf("Decode(%T): %v, want an error naming kind %s", c.v, err, c.kind)
		}
	}
}

// iface hand-encodes an interface payload.
func iface(name string, hash uint32, rest ...byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint32(b, hash)
	return append(b, rest...)
}

// TestDepthLimit: a crafted chain of pointers deeper than maxDepth is
// rejected rather than recursed.
func TestDepthLimit(t *testing.T) {
	var src []byte
	for i := 0; i <= maxDepth+1; i++ {
		src = append(src, 1, 0) // presence, V=0
	}
	src = append(src, 0)
	var l list
	if err := Decode(src[1:], &l); err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("deep chain: %v", err)
	}
}

func TestSchemaHashTracksLayout(t *testing.T) {
	type v1 struct{ A, B int }
	type v2 struct{ A, C int }
	type v3 struct{ A, B int }
	h1, _ := SchemaHash(&v1{})
	h2, _ := SchemaHash(&v2{})
	h3, _ := SchemaHash(&v3{})
	if h1 == h2 || h1 != h3 {
		t.Fatalf("schema hashes: v1 %x v2 %x v3 %x", h1, h2, h3)
	}
}

func TestEncodeWritesOnce(t *testing.T) {
	var w countingWriter
	if err := Encode(&w, fullKitchen()); err != nil {
		t.Fatal(err)
	}
	want, _ := Append(nil, fullKitchen())
	if w.writes != 1 || !bytes.Equal(w.buf, want) {
		t.Fatalf("Encode made %d writes of %d bytes, want 1 of %d", w.writes, len(w.buf), len(want))
	}
}

type countingWriter struct {
	buf    []byte
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// TestMapAllocsFlat: a map costs a fixed number of allocations to encode
// and decode, whatever its size — entries are neither boxed one by one
// on the way out nor allocated one by one on the way in. The sizes
// compared share the runtime's map layout (one table: from 9 to 1024
// slots); a map of at most 8 entries is a single group and takes two
// allocations fewer.
func TestMapAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	type entry struct {
		A int
		B uint16
		C bool
	}
	allocs := func(n int) float64 {
		m := make(map[int]entry, n)
		for i := 0; i < n; i++ {
			m[i*7-20] = entry{A: i, B: uint16(i), C: i%2 == 0}
		}
		buf := make([]byte, 0, 64*n)
		var out map[int]entry
		return testing.AllocsPerRun(50, func() {
			b, err := Append(buf, &m)
			if err == nil {
				err = Decode(b, &out)
			}
			if err != nil || len(out) != n {
				t.Fatalf("round trip of %d entries: %v (%d decoded)", n, err, len(out))
			}
		})
	}
	small, large := allocs(64), allocs(512)
	t.Logf("allocations to encode and decode a map: %v at 64 entries, %v at 512", small, large)
	if large > small {
		t.Fatalf("a 512-entry map allocates %v times, a 64-entry one %v: allocations grow with entries", large, small)
	}
}
