// Package imgcodec is the checkpoint-image codec: a compact binary
// encoding of the guest state closure (the types listed in
// STATE_MANIFEST.txt) driven by per-type plans.
//
// A plan is compiled once per process for each Go type the first time it
// is encoded or decoded, and cached. Nothing type-describing goes on the
// wire: the reader must know the static type, as the guest image format
// does. So every encoding is self-contained — two encodings of
// equal values are equal bytes, whatever else the process encoded first
// — which is what makes image bytes replay deterministically.
//
// Wire format, by kind:
//
//	bool                 one byte, 0 or 1
//	int kinds            zig-zag varint
//	uint kinds           uvarint
//	float32/float64      IEEE bits, little-endian (4/8 bytes)
//	string, []byte       uvarint length, raw bytes
//	payload.Bytes        uvarint length, raw bytes (the rope's content)
//	slice                uvarint length, elements
//	array                elements
//	pointer              presence byte (0 nil, 1 set), then the element
//	map                  uvarint count, entries in ascending key order;
//	                     keys must be of int, uint or string kind
//	struct               fields in declaration order; a type with an
//	                     unexported field is rejected, not truncated
//	interface            registered name of the concrete type ("" for
//	                     nil), its 32-bit plan hash (LE), then the value
//
// Decoding conventions: empty slices, maps and ropes decode as nil, and a
// zero float struct field, -0 included, decodes as +0. Restored guests,
// and the replay digests pinned on them, depend on these. Decoded byte
// slices and ropes are fresh copies; nothing aliases the source buffer.
//
// Decoding is bounded: every length prefix is checked against the bytes
// that remain before anything is allocated, so hostile input yields an
// error, never a panic or an allocation larger than a small multiple of
// the input.
package imgcodec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"dvc/internal/payload"
)

// maxDepth bounds pointer and interface nesting while decoding, so a
// crafted image cannot recurse the decoder's stack without limit.
const maxDepth = 256

// encoder accumulates one value's encoding. Errors are sticky: ops keep
// running but the result is discarded.
type encoder struct {
	buf []byte
	err error
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("imgcodec: "+format, args...)
	}
}

// decoder reads one value's encoding. Errors are sticky: once set, every
// primitive read returns a zero value and every count is 0, so the ops
// unwind without touching more memory.
type decoder struct {
	src   []byte
	off   int
	depth int
	err   error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("imgcodec: "+format, args...)
	}
}

func (d *decoder) remaining() int { return len(d.src) - d.off }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.src[d.off:])
	if n <= 0 {
		d.fail("malformed uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.src[d.off:])
	if n <= 0 {
		d.fail("malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > d.remaining() {
		d.fail("need %d bytes at offset %d, have %d", n, d.off, d.remaining())
		return nil
	}
	b := d.src[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) readByte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// count reads a length prefix for items that each take at least minSize
// encoded bytes (at least one byte is assumed even for empty items) and
// rejects it if the remaining input cannot hold that many.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if minSize < 1 {
		minSize = 1
	}
	if n > uint64(d.remaining()/minSize) {
		d.fail("length %d at offset %d exceeds the %d bytes left", n, d.off, d.remaining())
		return 0
	}
	return int(n)
}

// plan is the compiled codec of one Go type. enc reads the value at p;
// dec writes it at p, which must hold the type's zero value.
type plan struct {
	typ  reflect.Type
	enc  func(e *encoder, p unsafe.Pointer)
	dec  func(d *decoder, p unsafe.Pointer)
	min  int    // fewest bytes an encoded value takes
	desc string // canonical shape; its hash identifies the wire layout
}

var (
	plans   sync.Map   // reflect.Type -> *plan, complete plans only
	buildMu sync.Mutex // serialises plan compilation
)

// planFor returns t's plan, compiling it (and every plan it needs) on
// first use.
func planFor(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	b := compiler{building: make(map[reflect.Type]*plan)}
	p, err := b.build(t)
	if err != nil {
		return nil, err
	}
	for _, bp := range b.order {
		plans.Store(bp.typ, bp)
	}
	return p, nil
}

// compiler compiles the plans of one type closure. building holds plans
// whose ops may still be unset; a recursive type's ops reach their own
// plan through the pointer, so they see the finished ops at run time.
type compiler struct {
	building map[reflect.Type]*plan
	order    []*plan
}

var ropeType = reflect.TypeOf(payload.Bytes{})

func (b *compiler) build(t reflect.Type) (*plan, error) {
	if p, ok := plans.Load(t); ok {
		return p.(*plan), nil
	}
	if p, ok := b.building[t]; ok {
		return p, nil
	}
	p := &plan{typ: t, min: 1, desc: describe(t, nil)}
	b.building[t] = p
	b.order = append(b.order, p)
	if err := b.compile(p); err != nil {
		return nil, err
	}
	return p, nil
}

func (b *compiler) compile(p *plan) error {
	t := p.typ
	if t == ropeType {
		p.enc, p.dec = encRope, decRope
		return nil
	}
	switch t.Kind() {
	case reflect.Bool:
		p.enc, p.dec = encBool, decBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.enc, p.dec = intOps(t.Kind())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.enc, p.dec = uintOps(t.Kind())
	case reflect.Float32:
		p.min = 4
		p.enc, p.dec = encFloat32, decFloat32
	case reflect.Float64:
		p.min = 8
		p.enc, p.dec = encFloat64, decFloat64
	case reflect.String:
		p.enc, p.dec = encString, decString
	case reflect.Slice:
		return b.compileSlice(p)
	case reflect.Array:
		return b.compileArray(p)
	case reflect.Pointer:
		return b.compilePointer(p)
	case reflect.Map:
		return b.compileMap(p)
	case reflect.Struct:
		return b.compileStruct(p)
	case reflect.Interface:
		p.enc, p.dec = ifaceOps(t)
	default:
		return fmt.Errorf("imgcodec: cannot encode %s of kind %s", t, t.Kind())
	}
	return nil
}

// describe renders t's wire layout canonically: kinds, field names and
// nesting, not type names (interfaces are just "iface"; their payloads
// carry their own hashes). A type met again inside itself is written as
// a back-reference to its name, so the result depends only on t.
func describe(t reflect.Type, open []reflect.Type) string {
	for _, o := range open {
		if o == t {
			return "rec:" + t.String()
		}
	}
	if t == ropeType {
		return "rope"
	}
	open = append(open, t)
	switch t.Kind() {
	case reflect.Slice:
		return "[]" + describe(t.Elem(), open)
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), describe(t.Elem(), open))
	case reflect.Pointer:
		return "*" + describe(t.Elem(), open)
	case reflect.Map:
		return "map[" + describe(t.Key(), open) + "]" + describe(t.Elem(), open)
	case reflect.Interface:
		return "iface"
	case reflect.Struct:
		var sb strings.Builder
		sb.WriteString("struct{")
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.Name != "_" {
				sb.WriteString(f.Name + ":" + describe(f.Type, open) + ";")
			}
		}
		sb.WriteString("}")
		return sb.String()
	}
	return t.Kind().String()
}

// --- scalars ---

func encBool(e *encoder, p unsafe.Pointer) {
	if *(*bool)(p) {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func decBool(d *decoder, p unsafe.Pointer) {
	switch d.readByte() {
	case 0:
	case 1:
		*(*bool)(p) = true
	default:
		d.fail("bad bool at offset %d", d.off-1)
	}
}

func intOps(k reflect.Kind) (func(*encoder, unsafe.Pointer), func(*decoder, unsafe.Pointer)) {
	switch k {
	case reflect.Int8:
		return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendVarint(e.buf, int64(*(*int8)(p))) },
			func(d *decoder, p unsafe.Pointer) { *(*int8)(p) = int8(d.fitInt(8)) }
	case reflect.Int16:
		return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendVarint(e.buf, int64(*(*int16)(p))) },
			func(d *decoder, p unsafe.Pointer) { *(*int16)(p) = int16(d.fitInt(16)) }
	case reflect.Int32:
		return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendVarint(e.buf, int64(*(*int32)(p))) },
			func(d *decoder, p unsafe.Pointer) { *(*int32)(p) = int32(d.fitInt(32)) }
	case reflect.Int:
		return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendVarint(e.buf, int64(*(*int)(p))) },
			func(d *decoder, p unsafe.Pointer) { *(*int)(p) = int(d.fitInt(strconvIntSize)) }
	}
	return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendVarint(e.buf, *(*int64)(p)) },
		func(d *decoder, p unsafe.Pointer) { *(*int64)(p) = d.varint() }
}

func uintOps(k reflect.Kind) (func(*encoder, unsafe.Pointer), func(*decoder, unsafe.Pointer)) {
	switch k {
	case reflect.Uint8:
		return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendUvarint(e.buf, uint64(*(*uint8)(p))) },
			func(d *decoder, p unsafe.Pointer) { *(*uint8)(p) = uint8(d.fitUint(8)) }
	case reflect.Uint16:
		return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendUvarint(e.buf, uint64(*(*uint16)(p))) },
			func(d *decoder, p unsafe.Pointer) { *(*uint16)(p) = uint16(d.fitUint(16)) }
	case reflect.Uint32:
		return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendUvarint(e.buf, uint64(*(*uint32)(p))) },
			func(d *decoder, p unsafe.Pointer) { *(*uint32)(p) = uint32(d.fitUint(32)) }
	case reflect.Uint:
		return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendUvarint(e.buf, uint64(*(*uint)(p))) },
			func(d *decoder, p unsafe.Pointer) { *(*uint)(p) = uint(d.fitUint(strconvIntSize)) }
	case reflect.Uintptr:
		return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendUvarint(e.buf, uint64(*(*uintptr)(p))) },
			func(d *decoder, p unsafe.Pointer) { *(*uintptr)(p) = uintptr(d.fitUint(strconvIntSize)) }
	}
	return func(e *encoder, p unsafe.Pointer) { e.buf = binary.AppendUvarint(e.buf, *(*uint64)(p)) },
		func(d *decoder, p unsafe.Pointer) { *(*uint64)(p) = d.uvarint() }
}

// strconvIntSize is the width of int, uint and uintptr.
const strconvIntSize = 32 << (^uint(0) >> 63)

// fitInt reads a varint that must fit a signed integer of the given width.
func (d *decoder) fitInt(bits uint) int64 {
	v := d.varint()
	if bits < 64 && (v < -1<<(bits-1) || v >= 1<<(bits-1)) {
		d.fail("integer %d overflows int%d", v, bits)
		return 0
	}
	return v
}

// fitUint reads a uvarint that must fit an unsigned integer of the given
// width.
func (d *decoder) fitUint(bits uint) uint64 {
	v := d.uvarint()
	if bits < 64 && v >= 1<<bits {
		d.fail("integer %d overflows uint%d", v, bits)
		return 0
	}
	return v
}

func encFloat32(e *encoder, p unsafe.Pointer) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, *(*uint32)(p))
}

func decFloat32(d *decoder, p unsafe.Pointer) {
	if b := d.take(4); b != nil {
		*(*uint32)(p) = binary.LittleEndian.Uint32(b)
	}
}

func encFloat64(e *encoder, p unsafe.Pointer) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, *(*uint64)(p))
}

func decFloat64(d *decoder, p unsafe.Pointer) {
	if b := d.take(8); b != nil {
		*(*uint64)(p) = binary.LittleEndian.Uint64(b)
	}
}

// encFieldFloat32/64 encode a float struct field, writing -0 as +0 (see
// the decoding conventions in the package comment).
func encFieldFloat32(e *encoder, p unsafe.Pointer) {
	bits := *(*uint32)(p)
	if *(*float32)(p) == 0 {
		bits = 0
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, bits)
}

func encFieldFloat64(e *encoder, p unsafe.Pointer) {
	bits := *(*uint64)(p)
	if *(*float64)(p) == 0 {
		bits = 0
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, bits)
}

func encString(e *encoder, p unsafe.Pointer) {
	s := *(*string)(p)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func decString(d *decoder, p unsafe.Pointer) {
	n := d.count(1)
	if n > 0 {
		*(*string)(p) = string(d.take(n))
	}
}

func encRope(e *encoder, p unsafe.Pointer) {
	r := (*payload.Bytes)(p)
	e.buf = binary.AppendUvarint(e.buf, uint64(r.Len()))
	e.buf = r.AppendTo(e.buf)
}

func decRope(d *decoder, p unsafe.Pointer) {
	if n := d.count(1); n > 0 {
		*(*payload.Bytes)(p) = payload.Wrap(append([]byte(nil), d.take(n)...))
	}
}

// --- slices and arrays ---

// sliceHeader is the runtime layout of every slice type.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

func (b *compiler) compileSlice(p *plan) error {
	t := p.typ
	switch t.Elem().Kind() {
	case reflect.Uint8:
		p.enc, p.dec = encByteSlice, decByteSlice
		return nil
	case reflect.Float64:
		p.enc, p.dec = encFloat64Slice, decFloat64Slice
		return nil
	}
	ep, err := b.build(t.Elem())
	if err != nil {
		return err
	}
	size := t.Elem().Size()
	p.enc = func(e *encoder, ptr unsafe.Pointer) {
		h := (*sliceHeader)(ptr)
		e.buf = binary.AppendUvarint(e.buf, uint64(h.len))
		for i := 0; i < h.len; i++ {
			ep.enc(e, unsafe.Add(h.data, uintptr(i)*size))
		}
	}
	p.dec = func(d *decoder, ptr unsafe.Pointer) {
		n := d.count(ep.min)
		if n == 0 {
			return
		}
		s := reflect.MakeSlice(t, n, n)
		reflect.NewAt(t, ptr).Elem().Set(s)
		base := s.UnsafePointer()
		for i := 0; i < n && d.err == nil; i++ {
			ep.dec(d, unsafe.Add(base, uintptr(i)*size))
		}
	}
	return nil
}

func encByteSlice(e *encoder, p unsafe.Pointer) {
	s := *(*[]byte)(p)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func decByteSlice(d *decoder, p unsafe.Pointer) {
	if n := d.count(1); n > 0 {
		*(*[]byte)(p) = append([]byte(nil), d.take(n)...)
	}
}

func encFloat64Slice(e *encoder, p unsafe.Pointer) {
	s := *(*[]uint64)(p)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	for _, bits := range s {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, bits)
	}
}

func decFloat64Slice(d *decoder, p unsafe.Pointer) {
	n := d.count(8)
	if n == 0 {
		return
	}
	raw := d.take(8 * n)
	s := make([]uint64, n)
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	*(*[]uint64)(p) = s
}

func (b *compiler) compileArray(p *plan) error {
	t := p.typ
	ep, err := b.build(t.Elem())
	if err != nil {
		return err
	}
	n, size := t.Len(), t.Elem().Size()
	p.min = n * ep.min
	p.enc = func(e *encoder, ptr unsafe.Pointer) {
		for i := 0; i < n; i++ {
			ep.enc(e, unsafe.Add(ptr, uintptr(i)*size))
		}
	}
	p.dec = func(d *decoder, ptr unsafe.Pointer) {
		for i := 0; i < n && d.err == nil; i++ {
			ep.dec(d, unsafe.Add(ptr, uintptr(i)*size))
		}
	}
	return nil
}

// --- pointers ---

func (b *compiler) compilePointer(p *plan) error {
	t := p.typ
	ep, err := b.build(t.Elem())
	if err != nil {
		return err
	}
	p.enc = func(e *encoder, ptr unsafe.Pointer) { encPointee(e, ep, *(*unsafe.Pointer)(ptr)) }
	p.dec = func(d *decoder, ptr unsafe.Pointer) {
		if v, ok := decPointee(d, ep); ok {
			reflect.NewAt(t, ptr).Elem().Set(v)
		}
	}
	return nil
}

// encPointee writes a pointer's presence byte and, if set, the value it
// points to.
func encPointee(e *encoder, ep *plan, q unsafe.Pointer) {
	if q == nil {
		e.buf = append(e.buf, 0)
		return
	}
	e.buf = append(e.buf, 1)
	ep.enc(e, q)
}

// decPointee reads a presence byte and, if set, a freshly allocated
// value; ok is false for nil (or on error).
func decPointee(d *decoder, ep *plan) (v reflect.Value, ok bool) {
	switch d.readByte() {
	case 0:
		return v, false
	case 1:
	default:
		d.fail("bad pointer presence byte at offset %d", d.off-1)
		return v, false
	}
	if d.depth++; d.depth > maxDepth {
		d.fail("nesting deeper than %d", maxDepth)
		return v, false
	}
	v = reflect.New(ep.typ)
	ep.dec(d, v.UnsafePointer())
	d.depth--
	return v, d.err == nil
}

// --- maps ---

func (b *compiler) compileMap(p *plan) error {
	t := p.typ
	kt := t.Key()
	var keyCmp func(a, b reflect.Value) int
	switch kt.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		keyCmp = func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		keyCmp = func(a, b reflect.Value) int { return cmp.Compare(a.Uint(), b.Uint()) }
	case reflect.String:
		keyCmp = func(a, b reflect.Value) int { return cmp.Compare(a.String(), b.String()) }
	default:
		return fmt.Errorf("imgcodec: map %s: key kind %s has no canonical order", t, kt.Kind())
	}
	kp, err := b.build(kt)
	if err != nil {
		return err
	}
	vp, err := b.build(t.Elem())
	if err != nil {
		return err
	}
	// Encoding copies the entries into one key slice and one value
	// slice and sorts an index over them; decoding reuses one value and
	// two keys (the current and the previous, for the order check), as
	// SetMapIndex copies. Either way a map costs a fixed number of
	// allocations, however many entries it holds.
	kst, vst := reflect.SliceOf(kt), reflect.SliceOf(t.Elem())
	ksize, vsize := kt.Size(), t.Elem().Size()
	p.enc = func(e *encoder, ptr unsafe.Pointer) {
		m := reflect.NewAt(t, ptr).Elem()
		n := m.Len()
		e.buf = binary.AppendUvarint(e.buf, uint64(n))
		if n == 0 {
			return
		}
		keys, vals := reflect.MakeSlice(kst, n, n), reflect.MakeSlice(vst, n, n)
		order := make([]int, n)
		it := m.MapRange()
		for i := 0; it.Next(); i++ {
			keys.Index(i).SetIterKey(it)
			vals.Index(i).SetIterValue(it)
			order[i] = i
		}
		slices.SortFunc(order, func(i, j int) int { return keyCmp(keys.Index(i), keys.Index(j)) })
		kbase, vbase := keys.UnsafePointer(), vals.UnsafePointer()
		for _, i := range order {
			kp.enc(e, unsafe.Add(kbase, uintptr(i)*ksize))
			vp.enc(e, unsafe.Add(vbase, uintptr(i)*vsize))
		}
	}
	p.dec = func(d *decoder, ptr unsafe.Pointer) {
		n := d.count(kp.min + vp.min)
		if n == 0 {
			return
		}
		m := reflect.MakeMapWithSize(t, n)
		reflect.NewAt(t, ptr).Elem().Set(m)
		k, prev, v := reflect.New(kt).Elem(), reflect.New(kt).Elem(), reflect.New(t.Elem()).Elem()
		for i := 0; i < n && d.err == nil; i++ {
			k.SetZero()
			v.SetZero()
			kp.dec(d, k.Addr().UnsafePointer())
			vp.dec(d, v.Addr().UnsafePointer())
			if d.err != nil {
				return
			}
			if i > 0 && keyCmp(prev, k) >= 0 {
				d.fail("map %s keys out of order", t)
				return
			}
			m.SetMapIndex(k, v)
			k, prev = prev, k
		}
	}
	return nil
}

// --- structs ---

type field struct {
	off uintptr
	p   *plan
	enc func(e *encoder, p unsafe.Pointer)
}

func (b *compiler) compileStruct(p *plan) error {
	t := p.typ
	var fields []field
	p.min = 0
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Name == "_" {
			continue
		}
		if !sf.IsExported() {
			return fmt.Errorf("imgcodec: %s.%s is unexported and would not survive save/restore", t, sf.Name)
		}
		fp, err := b.build(sf.Type)
		if err != nil {
			return err
		}
		f := field{off: sf.Offset, p: fp}
		switch sf.Type.Kind() {
		case reflect.Float32:
			f.enc = encFieldFloat32
		case reflect.Float64:
			f.enc = encFieldFloat64
		}
		fields = append(fields, f)
		p.min += fp.min
	}
	p.enc = func(e *encoder, ptr unsafe.Pointer) {
		for i := range fields {
			f := &fields[i]
			if f.enc != nil {
				f.enc(e, unsafe.Add(ptr, f.off))
			} else {
				f.p.enc(e, unsafe.Add(ptr, f.off))
			}
		}
	}
	p.dec = func(d *decoder, ptr unsafe.Pointer) {
		for i := range fields {
			if d.err != nil {
				return
			}
			fields[i].p.dec(d, unsafe.Add(ptr, fields[i].off))
		}
	}
	return nil
}

// --- interfaces and the payload registry ---

// payloadType is one registered interface payload.
type payloadType struct {
	name string
	typ  reflect.Type
	p    *plan // typ's plan; for a pointer type, the pointee's
	hash uint32
}

// registry is immutable once published: Register swaps in a copy, so
// readers index it without locking.
type registry struct {
	byName map[string]*payloadType
	byType map[reflect.Type]*payloadType
}

var (
	reg   atomic.Pointer[registry]
	regMu sync.Mutex
)

// Register records the concrete type of v as an interface payload under
// its stable name, the import path and name of the (pointed-to) named
// type, e.g. "dvc/internal/hpcc.HPL" for &hpcc.HPL{}. Call it from init.
// It panics if the type cannot be encoded or the name is taken by a
// different type.
func Register(v any) {
	t := reflect.TypeOf(v)
	if t == nil {
		panic("imgcodec: Register(nil)")
	}
	named := t
	if named.Kind() == reflect.Pointer {
		named = named.Elem()
	}
	if named.Name() == "" || named.PkgPath() == "" {
		panic(fmt.Sprintf("imgcodec: Register(%s): payloads must be named types", t))
	}
	name := named.PkgPath() + "." + named.Name()
	tp, err := planFor(t)
	if err != nil {
		panic(err)
	}
	pt := &payloadType{name: name, typ: t, p: tp, hash: hash32(tp.desc)}
	if t.Kind() == reflect.Pointer {
		pt.p, _ = planFor(t.Elem()) // compiled with t's plan above
	}

	regMu.Lock()
	defer regMu.Unlock()
	old := reg.Load()
	next := &registry{byName: map[string]*payloadType{name: pt}, byType: map[reflect.Type]*payloadType{t: pt}}
	if old != nil {
		if prev, ok := old.byName[name]; ok {
			if prev.typ == t {
				return
			}
			panic(fmt.Sprintf("imgcodec: name %q registered for both %s and %s", name, prev.typ, t))
		}
		for k, v := range old.byName {
			next.byName[k] = v
		}
		for k, v := range old.byType {
			next.byType[k] = v
		}
	}
	reg.Store(next)
}

func ifaceOps(t reflect.Type) (func(*encoder, unsafe.Pointer), func(*decoder, unsafe.Pointer)) {
	enc := func(e *encoder, ptr unsafe.Pointer) {
		iv := reflect.NewAt(t, ptr).Elem()
		if iv.IsNil() {
			e.buf = append(e.buf, 0) // empty name
			return
		}
		cv := iv.Elem()
		var pt *payloadType
		if r := reg.Load(); r != nil {
			pt = r.byType[cv.Type()]
		}
		if pt == nil {
			e.fail("%s is not registered (imgcodec.Register)", cv.Type())
			return
		}
		e.buf = binary.AppendUvarint(e.buf, uint64(len(pt.name)))
		e.buf = append(e.buf, pt.name...)
		e.buf = binary.LittleEndian.AppendUint32(e.buf, pt.hash)
		if pt.typ.Kind() == reflect.Pointer {
			encPointee(e, pt.p, cv.UnsafePointer())
			return
		}
		tmp := reflect.New(pt.typ)
		tmp.Elem().Set(cv)
		pt.p.enc(e, tmp.UnsafePointer())
	}
	dec := func(d *decoder, ptr unsafe.Pointer) {
		name := d.take(d.count(1))
		if len(name) == 0 {
			return
		}
		var pt *payloadType
		if r := reg.Load(); r != nil {
			pt = r.byName[string(name)]
		}
		if pt == nil {
			d.fail("unregistered payload type %q", name)
			return
		}
		if h := d.take(4); h == nil || binary.LittleEndian.Uint32(h) != pt.hash {
			d.fail("payload %s: plan hash mismatch (image written by a different build)", pt.name)
			return
		}
		if !pt.typ.Implements(t) {
			d.fail("payload %s does not implement %s", pt.name, t)
			return
		}
		iv := reflect.NewAt(t, ptr).Elem()
		if pt.typ.Kind() == reflect.Pointer {
			if v, ok := decPointee(d, pt.p); ok {
				iv.Set(v)
			} else if d.err == nil {
				iv.Set(reflect.Zero(pt.typ))
			}
			return
		}
		if d.depth++; d.depth > maxDepth {
			d.fail("nesting deeper than %d", maxDepth)
			return
		}
		v := reflect.New(pt.typ)
		pt.p.dec(d, v.UnsafePointer())
		d.depth--
		if d.err == nil {
			iv.Set(v.Elem())
		}
	}
	return enc, dec
}

// --- entry points ---

// target checks that v is a non-nil pointer and returns its element plan.
func target(v any) (*plan, unsafe.Pointer, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil, nil, fmt.Errorf("imgcodec: need a non-nil pointer, got %T", v)
	}
	p, err := planFor(rv.Type().Elem())
	if err != nil {
		return nil, nil, err
	}
	return p, rv.UnsafePointer(), nil
}

// Append appends the encoding of *v to dst. v must be a non-nil pointer.
func Append(dst []byte, v any) ([]byte, error) {
	p, ptr, err := target(v)
	if err != nil {
		return dst, err
	}
	e := encoder{buf: dst}
	p.enc(&e, ptr)
	if e.err != nil {
		return dst, e.err
	}
	return e.buf, nil
}

// maxPooledBuf keeps one outsized value from pinning its buffer in the
// pool.
const maxPooledBuf = 4 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// Encode writes the encoding of *v to w in a single Write from a pooled
// scratch buffer, which w must not retain: a writer that keeps the bytes
// copies them once, at their final size. v must be a non-nil pointer.
func Encode(w io.Writer, v any) error {
	bp := bufPool.Get().(*[]byte)
	buf, err := Append((*bp)[:0], v)
	if err == nil {
		_, err = w.Write(buf)
	}
	if cap(buf) <= maxPooledBuf {
		*bp = buf
		bufPool.Put(bp)
	}
	return err
}

// Decode decodes src, which must hold exactly one encoded value, into *v.
// v must be a non-nil pointer; *v is reset to its zero value first.
func Decode(src []byte, v any) error {
	p, ptr, err := target(v)
	if err != nil {
		return err
	}
	reflect.ValueOf(v).Elem().SetZero()
	d := decoder{src: src}
	p.dec(&d, ptr)
	if d.err != nil {
		return d.err
	}
	if d.off != len(src) {
		return fmt.Errorf("imgcodec: %d trailing bytes after a %d-byte value", len(src)-d.off, d.off)
	}
	return nil
}

// SchemaHash hashes the wire layout of the types *vs[0], *vs[1], ...
// (each v a pointer, possibly nil). Two builds agree on it exactly when
// they encode those types identically, interface payloads aside: those
// carry their own plan hashes.
func SchemaHash(vs ...any) (uint64, error) {
	h := fnv.New64a()
	for _, v := range vs {
		t := reflect.TypeOf(v)
		if t == nil || t.Kind() != reflect.Pointer {
			return 0, fmt.Errorf("imgcodec: SchemaHash needs pointers, got %T", v)
		}
		p, err := planFor(t.Elem())
		if err != nil {
			return 0, err
		}
		h.Write([]byte(p.desc))
		h.Write([]byte{'\n'})
	}
	return h.Sum64(), nil
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}
