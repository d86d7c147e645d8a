package payload

import (
	"bytes"
	"testing"
)

// TestChunkIDContentAddressed pins the identity contract: equal content
// means equal ID regardless of which buffer holds it, and any content
// change moves the ID.
func TestChunkIDContentAddressed(t *testing.T) {
	a := []byte("the quick brown fox")
	b := append([]byte(nil), a...)
	if ChunkIDOf(a) != ChunkIDOf(b) {
		t.Fatalf("equal content produced different ChunkIDs")
	}
	b[0] ^= 1
	if ChunkIDOf(a) == ChunkIDOf(b) {
		t.Fatalf("different content produced equal ChunkIDs")
	}
	if ChunkIDOf(nil) != ChunkIDOf([]byte{}) {
		t.Fatalf("nil and empty chunk disagree")
	}
}

// TestAppendChunkIDs checks that rope chunk identities line up with the
// underlying chunk geometry and append to an existing slice.
func TestAppendChunkIDs(t *testing.T) {
	c1, c2 := []byte("alpha"), []byte("beta")
	b := FromChunks(c1, c2)
	ids := b.AppendChunkIDs([]ChunkID{ChunkIDOf([]byte("prefix"))})
	if len(ids) != 3 {
		t.Fatalf("got %d ids, want 3", len(ids))
	}
	if ids[1] != ChunkIDOf(c1) || ids[2] != ChunkIDOf(c2) {
		t.Fatalf("chunk ids do not match chunk content")
	}
	if Bytes.AppendChunkIDs(Bytes{}, nil) != nil {
		t.Fatalf("empty rope appended ids")
	}
}

// TestWriterSealSectionLocalChunking is the determinism property the
// delta pipeline needs: a section's chunking depends only on that
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
		if ChunkIDOf(got[i]) != ChunkIDOf(want[i]) {
			t.Fatalf("section B chunk %d id differs from solo encode", i)
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
