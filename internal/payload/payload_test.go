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
