package payload

import (
	"bytes"
	"math/rand"
	"testing"
)

// checkRope checks every read accessor of rope against its flat model:
// Len, Flatten, At, CopyTo, AppendTo, Equal, and the chunk layout
// (NumChunks non-empty chunks whose concatenation is the model).
func checkRope(t *testing.T, rope Bytes, model []byte) {
	t.Helper()
	if rope.Len() != len(model) {
		t.Fatalf("Len=%d model=%d", rope.Len(), len(model))
	}
	if got := rope.Flatten(); !bytes.Equal(got, model) {
		t.Fatalf("Flatten mismatch: %d vs %d bytes", len(got), len(model))
	}
	if !rope.Equal(Wrap(append([]byte(nil), model...))) {
		t.Fatalf("Equal(model wrap) = false")
	}
	var joined []byte
	for k := 0; k < rope.NumChunks(); k++ {
		c := rope.Chunk(k)
		if len(c) == 0 {
			t.Fatalf("chunk %d of %d is empty", k, rope.NumChunks())
		}
		joined = append(joined, c...)
	}
	if !bytes.Equal(joined, model) {
		t.Fatalf("chunks join to %d bytes, model has %d", len(joined), len(model))
	}
	if n := len(model); n > 0 {
		for _, i := range []int{0, n / 2, n - 1} {
			if rope.At(i) != model[i] {
				t.Fatalf("At(%d)=%d model=%d", i, rope.At(i), model[i])
			}
		}
		dst := make([]byte, n)
		if c := rope.CopyTo(dst); c != n || !bytes.Equal(dst, model) {
			t.Fatalf("CopyTo copied %d/%d or mismatched", c, n)
		}
	}
	if got := rope.AppendTo([]byte{0xEE}); !bytes.Equal(got, append([]byte{0xEE}, model...)) {
		t.Fatalf("AppendTo mismatch")
	}
}

// pair is a rope with its flat byte model.
type pair struct {
	rope  Bytes
	model []byte
}

// TestBytesModel property-tests the rope against a plain []byte model:
// every sequence of Wrap/FromChunks/Slice/Concat operations must produce
// a rope whose Flatten equals the model's result, with At/Len/Equal/
// CopyTo/AppendTo agreeing along the way.
func TestBytesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	fill := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
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
		checkRope(t, next.rope, next.model)
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

// TestChunkPanics pins that Chunk panics outside [0, NumChunks) for
// every layout: empty, one and two inline chunks, and a spill.
func TestChunkPanics(t *testing.T) {
	a, b, c := []byte{1}, []byte{2, 3}, []byte{4}
	for _, r := range []Bytes{{}, Wrap(a), FromChunks(a, b), FromChunks(a, b, c)} {
		for _, i := range []int{-1, r.NumChunks()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("Chunk(%d) of %d chunks did not panic", i, r.NumChunks())
					}
				}()
				r.Chunk(i)
			}()
		}
	}
}
