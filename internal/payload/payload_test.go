package payload

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestBytesModel property-tests the rope against a plain []byte model:
// every sequence of Wrap/FromChunks/Slice/Concat operations must produce
// a rope whose Flatten equals the model's result, with At/Len/Equal/
// CopyTo/AppendTo agreeing along the way.
func TestBytesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type pair struct {
		rope  Bytes
		model []byte
	}
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
	}
	check := func(t *testing.T, p pair) {
		t.Helper()
		if p.rope.Len() != len(p.model) {
			t.Fatalf("Len=%d model=%d", p.rope.Len(), len(p.model))
		}
		if got := p.rope.Flatten(); !bytes.Equal(got, p.model) {
			t.Fatalf("Flatten mismatch: %d vs %d bytes", len(got), len(p.model))
		}
		if !p.rope.Equal(Wrap(append([]byte(nil), p.model...))) {
			t.Fatalf("Equal(model wrap) = false")
		}
		if n := len(p.model); n > 0 {
			for _, i := range []int{0, n / 2, n - 1} {
				if p.rope.At(i) != p.model[i] {
					t.Fatalf("At(%d)=%d model=%d", i, p.rope.At(i), p.model[i])
				}
			}
			dst := make([]byte, n)
			if c := p.rope.CopyTo(dst); c != n || !bytes.Equal(dst, p.model) {
				t.Fatalf("CopyTo copied %d/%d or mismatched", c, n)
			}
		}
		if got := p.rope.AppendTo([]byte{0xEE}); !bytes.Equal(got, append([]byte{0xEE}, p.model...)) {
			t.Fatalf("AppendTo mismatch")
		}
	}

	pool := []pair{{Bytes{}, nil}}
	for step := 0; step < 2000; step++ {
		var next pair
		switch rng.Intn(4) {
		case 0: // fresh Wrap
			b := fill(rng.Intn(64))
			next = pair{Wrap(b), b}
		case 1: // fresh FromChunks with some empty parts
			nparts := rng.Intn(5)
			parts := make([][]byte, nparts)
			var model []byte
			for i := range parts {
				parts[i] = fill(rng.Intn(16))
				model = append(model, parts[i]...)
			}
			next = pair{FromChunks(parts...), model}
		case 2: // Slice of a random pool member
			p := pool[rng.Intn(len(pool))]
			i := rng.Intn(len(p.model) + 1)
			j := i + rng.Intn(len(p.model)-i+1)
			next = pair{p.rope.Slice(i, j), append([]byte(nil), p.model[i:j]...)}
		case 3: // Concat of two pool members
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			next = pair{a.rope.Concat(b.rope), append(append([]byte(nil), a.model...), b.model...)}
		}
		check(t, next)
		pool = append(pool, next)
		if len(pool) > 64 {
			pool = pool[len(pool)-64:]
		}
	}
}

// TestEqualChunkingAgnostic pins that Equal compares content, not
// chunk layout.
func TestEqualChunkingAgnostic(t *testing.T) {
	content := []byte("the quick brown fox jumps over the lazy dog")
	a := Wrap(content)
	b := FromChunks(content[:7], content[7:7], content[7:19], content[19:])
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("differently chunked equal content compared unequal")
	}
	c := b.Slice(0, b.Len()-1).Concat(Wrap([]byte("G")))
	if a.Equal(c) || c.Equal(a) {
		t.Fatalf("different content compared equal")
	}
	if !(Bytes{}).Equal(Wrap(nil)) {
		t.Fatalf("empty ropes unequal")
	}
}

// TestSliceZeroCopy verifies slicing and single-chunk flattening share
// the original backing array rather than copying.
func TestSliceZeroCopy(t *testing.T) {
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = byte(i)
	}
	r := Wrap(buf)
	s := r.Slice(10, 20)
	if s.NumChunks() != 1 {
		t.Fatalf("NumChunks=%d, want 1", s.NumChunks())
	}
	f := s.Flatten()
	if &f[0] != &buf[10] {
		t.Fatalf("single-chunk Flatten copied")
	}
	if cap(f) != len(f) {
		t.Fatalf("Flatten leaked spare capacity: cap=%d len=%d", cap(f), len(f))
	}
}

// TestSlicePanics pins the panic behaviour mirroring b[i:j].
func TestSlicePanics(t *testing.T) {
	r := Wrap([]byte{1, 2, 3})
	for _, tc := range [][2]int{{-1, 2}, {2, 1}, {0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Slice(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			r.Slice(tc[0], tc[1])
		}()
	}
}

// TestWriterChunking drives the Writer with writes that straddle chunk
// boundaries and verifies Take() returns the exact content (chunk
// geometry is an implementation detail, but it must stay bounded), and
// that the Writer resets for reuse.
func TestWriterChunking(t *testing.T) {
	w := NewWriter(8)
	var model []byte
	rng := rand.New(rand.NewSource(7))
	writes := 0
	for i := 0; i < 50; i++ {
		p := make([]byte, rng.Intn(13))
		for j := range p {
			p[j] = byte(rng.Intn(256))
		}
		n, err := w.Write(p)
		if n != len(p) || err != nil {
			t.Fatalf("Write=%d,%v want %d,nil", n, err, len(p))
		}
		model = append(model, p...)
		writes++
		if w.Len() != len(model) {
			t.Fatalf("Len=%d model=%d", w.Len(), len(model))
		}
	}
	got := w.Take()
	if !bytes.Equal(got.Flatten(), model) {
		t.Fatalf("Take content mismatch")
	}
	// Small writes coalesce, large writes split: never more chunks than
	// writes plus the per-chunk ceiling.
	if max := writes + (len(model)+7)/8; got.NumChunks() > max {
		t.Fatalf("NumChunks=%d exceeds bound %d", got.NumChunks(), max)
	}
	if w.Len() != 0 || w.Take().Len() != 0 {
		t.Fatalf("Writer did not reset after Take")
	}
	// Zero value works.
	var zw Writer
	zw.Write([]byte("ok"))
	if zw.Take().Len() != 2 {
		t.Fatalf("zero-value Writer broken")
	}
}

// TestWriterLargeWriteFastPath verifies that a write of at least one
// chunk becomes its own exactly-sized chunk (no spare capacity for the
// rope to pin), and that content round-trips across mixed small/large
// writes.
func TestWriterLargeWriteFastPath(t *testing.T) {
	w := NewWriter(16)
	var model []byte
	small := []byte("abc")
	big := bytes.Repeat([]byte("x"), 100)
	for _, p := range [][]byte{small, big, small, big, big} {
		w.Write(p)
		model = append(model, p...)
	}
	got := w.Take()
	if !bytes.Equal(got.Flatten(), model) {
		t.Fatal("content mismatch")
	}
	for _, c := range got.Chunks() {
		if cap(c) != len(c) {
			t.Fatalf("chunk with spare capacity: len=%d cap=%d", len(c), cap(c))
		}
	}
}

// TestWriterTakeShrinksSparseTail verifies a mostly-empty tail chunk is
// copied down to size instead of pinning its backing array.
func TestWriterTakeShrinksSparseTail(t *testing.T) {
	w := NewWriter(DefaultChunkSize)
	w.Write([]byte("tiny"))
	got := w.Take()
	if got.NumChunks() != 1 {
		t.Fatalf("NumChunks=%d", got.NumChunks())
	}
	if c := got.Chunks()[0]; cap(c) > 2*len(c) {
		t.Fatalf("tail chunk pins cap=%d for len=%d", cap(c), len(c))
	}
}

// TestWriterSealSectionLocalChunking is the property sectioned image
// decoding rests on: a section's chunking depends only on that
// section's bytes. Writing A then Seal then B must give B the same
// chunks (same content, same boundaries) as writing B alone — even
// though A consumed part of the geometric size ramp.
func TestWriterSealSectionLocalChunking(t *testing.T) {
	section := func(seed byte, n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = seed + byte(i*7)
		}
		return out
	}
	a, b := section(1, 10_000), section(2, 30_000)

	var solo Writer
	solo.Write(b)
	solo.Seal()
	want := solo.Take().Chunks()

	var w Writer
	w.Write(a)
	w.Seal()
	w.Write(b)
	w.Seal()
	all := w.Take()
	// Skip past section A's chunks, then compare B's chunk geometry.
	var aLen int
	got := all.Chunks()
	for len(got) > 0 && aLen < len(a) {
		aLen += len(got[0])
		got = got[1:]
	}
	if aLen != len(a) {
		t.Fatalf("Seal did not close section A on a chunk boundary (covered %d of %d bytes)", aLen, len(a))
	}
	if len(got) != len(want) {
		t.Fatalf("section B chunk count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("section B chunk %d differs from solo encode", i)
		}
	}
}

// TestWriterSealEmptyAndContent checks Seal's edge cases: sealing with
// no pending bytes is a no-op on content, and sealed content round-trips
// byte-identically.
func TestWriterSealEmptyAndContent(t *testing.T) {
	var w Writer
	w.Seal()
	w.Write([]byte("abc"))
	w.Seal()
	w.Seal()
	w.Write([]byte("def"))
	w.Seal()
	got := w.Take()
	if string(got.Flatten()) != "abcdef" {
		t.Fatalf("sealed content = %q", got.Flatten())
	}
	if got.NumChunks() != 2 {
		t.Fatalf("got %d chunks, want one per sealed section", got.NumChunks())
	}
	if w.Len() != 0 {
		t.Fatalf("Take did not reset the writer")
	}
}
