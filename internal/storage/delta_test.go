package storage

import (
	"hash/crc32"
	"reflect"
	"testing"

	"dvc/internal/payload"
	"dvc/internal/sim"
	"dvc/internal/vm"
)

// deltaImg builds a delta image with an explicit page-table state. The
// functional payload is a small multi-chunk rope; the modelled side is
// entirely the versions slice.
func deltaImg(name string, lineage uint64, versions []uint32, parts ...[]byte) *vm.Image {
	data := payload.FromChunks(parts...)
	pt := &vm.PageTable{
		Lineage:   lineage,
		Template:  2 << 20,
		ChunkSize: 1 << 20,
		RAM:       int64(len(versions)) << 20,
		Versions:  append([]uint32(nil), versions...),
	}
	return &vm.Image{
		DomainName:   name,
		Addr:         "x",
		RAMBytes:     pt.RAM,
		Data:         data,
		Checksum:     crc32.ChecksumIEEE(data.Flatten()),
		PayloadBytes: 1,
		Pages:        pt,
		Delta:        true,
	}
}

func TestWriteDeltaDedupAcrossEpochs(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)

	// Epoch 0: everything untouched. Distinct chunks are the two
	// template offsets and ONE shared zero identity — the six untouched
	// non-template chunks dedup against each other inside the manifest.
	v0 := make([]uint32, 8)
	info0, err := s.Write("ckpt/a/0", deltaImg("a", 1, v0, []byte("epoch0")), nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	wantSent0 := int64(3<<20) + 8*ManifestEntryBytes
	if info0.Logical != 8<<20 || info0.Sent != wantSent0 || info0.NewChunks != 3 || info0.DedupChunks != 5 {
		t.Fatalf("epoch0: %+v", info0)
	}

	// Epoch 1: two chunks dirtied — only they cross the wire.
	v1 := append([]uint32(nil), v0...)
	v1[0], v1[1] = 1, 1
	info1, err := s.Write("ckpt/a/1", deltaImg("a", 1, v1, []byte("epoch1")), nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	wantSent1 := int64(2<<20) + 8*ManifestEntryBytes
	if info1.Sent != wantSent1 || info1.NewChunks != 2 || info1.DedupChunks != 6 {
		t.Fatalf("epoch1: %+v", info1)
	}
	if r := float64(info1.Logical) / float64(info1.Sent); r < 3.9 {
		t.Fatalf("epoch1 dedup ratio %.2f, want ~4", r)
	}

	// Logical vs resident: 16 MiB of logical images, 5 distinct chunks
	// in the pool (2 template + 1 zero + 2 private).
	if s.TotalBytes() != 16<<20 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
	if s.UniqueBytes() != 5<<20 {
		t.Fatalf("UniqueBytes = %d", s.UniqueBytes())
	}
	if s.DeltaWrites != 2 || s.BytesWritten != uint64(wantSent0+wantSent1) {
		t.Fatalf("stats: delta_writes=%d bytes=%d", s.DeltaWrites, s.BytesWritten)
	}
}

func TestWriteDeltaCrossVMDedup(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	v := make([]uint32, 8)
	if _, err := s.Write("ckpt/a/0", deltaImg("a", 1, v, []byte("a")), nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// A second untouched VM shares every template and zero chunk: its
	// first epoch costs manifest metadata only.
	infoB, err := s.Write("ckpt/b/0", deltaImg("b", 2, v, []byte("b")), nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if infoB.Sent != 8*ManifestEntryBytes || infoB.DedupChunks != 8 {
		t.Fatalf("cross-VM epoch: %+v", infoB)
	}
	// Once each VM dirties a chunk, the new chunks are private.
	va := append([]uint32(nil), v...)
	va[3] = 1
	infoA, err := s.Write("ckpt/a/1", deltaImg("a", 1, va, []byte("a1")), nil)
	if err != nil {
		t.Fatal(err)
	}
	infoB2, err := s.Write("ckpt/b/1", deltaImg("b", 2, va, []byte("b1")), nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if infoA.NewChunks != 1 || infoB2.NewChunks != 1 {
		t.Fatalf("private chunks deduped across VMs: a=%+v b=%+v", infoA, infoB2)
	}
}

// TestDeltaReadReassemblesByteIdentical: a delta object reads back the
// bytes and page table it was written with.
func TestDeltaReadReassemblesByteIdentical(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	orig := deltaImg("a", 1, []uint32{0, 3, 0, 1}, []byte("first chunk "), []byte("second"), []byte(" third"))
	if _, err := s.Write("ckpt/a/0", orig, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	var got *vm.Image
	var gotErr error
	s.Read("ckpt/a/0", func(i *vm.Image, err error) { got, gotErr = i, err })
	k.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !got.Data.Equal(orig.Data) {
		t.Fatal("read image differs from the written one")
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	if !got.Delta || !reflect.DeepEqual(got.Pages, orig.Pages) {
		t.Fatalf("read image lost its page table: %+v", got.Pages)
	}
}

// TestFullWriteSendsAllRAM: a full image transfers, and covers, all of
// its RAM, pins nothing, and reads back the same image.
func TestFullWriteSendsAllRAM(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	full := deltaImg("a", 1, []uint32{0, 3, 0, 1}, []byte("full "), []byte("image"))
	full.Delta = false
	info, err := s.Write("ckpt/a/0", full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (WriteInfo{Logical: full.RAMBytes, Sent: full.RAMBytes}); info != want {
		t.Fatalf("full write info %+v, want %+v", info, want)
	}
	k.Run()
	if s.Writes != 1 || s.DeltaWrites != 0 || s.BytesWritten != uint64(full.RAMBytes) || s.UniqueBytes() != 0 {
		t.Fatalf("stats: writes=%d delta_writes=%d bytes=%d pool=%d", s.Writes, s.DeltaWrites, s.BytesWritten, s.UniqueBytes())
	}
	var got *vm.Image
	s.Read("ckpt/a/0", func(i *vm.Image, err error) { got = i })
	k.Run()
	if got == nil || !got.Data.Equal(full.Data) || got.Verify() != nil || !reflect.DeepEqual(got.Pages, full.Pages) {
		t.Fatalf("full image did not read back intact: %+v", got)
	}
	s.Delete("ckpt/a/0")
	if chunks, _ := s.GC(); chunks != 0 {
		t.Fatalf("deleting a full image freed %d pool chunks", chunks)
	}
}

// TestWriteDeltaRequiresPages: Write rejects a delta image with a
// missing or malformed page table before it pins anything, leaving the
// pool and DeltaWrites untouched.
func TestWriteDeltaRequiresPages(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	bare := img("a", 100)
	bare.Delta = true
	if _, err := s.Write("x", bare, nil); err == nil {
		t.Fatal("Write accepted a delta image without a page table")
	}
	for name, mangle := range map[string]func(*vm.PageTable){
		"zero chunk size":    func(p *vm.PageTable) { p.ChunkSize = 0 },
		"truncated versions": func(p *vm.PageTable) { p.Versions = p.Versions[:3] },
		"cursor past RAM":    func(p *vm.PageTable) { p.Cursor = 4 * p.RAM },
	} {
		bad := deltaImg("a", 1, make([]uint32, 8), []byte("x"))
		mangle(bad.Pages)
		if _, err := s.Write("x", bad, nil); err == nil {
			t.Fatalf("%s: Write accepted a malformed page table", name)
		}
	}
	k.Run()
	if s.UniqueBytes() != 0 || s.DeltaWrites != 0 || s.BytesWritten != 0 || s.objects["x"] != nil {
		t.Fatalf("rejected writes left %d pool bytes, %d delta writes, %d bytes written", s.UniqueBytes(), s.DeltaWrites, s.BytesWritten)
	}
}

func TestDeleteReleasesChunksAndGCReclaims(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	v0 := make([]uint32, 8)
	v1 := append([]uint32(nil), v0...)
	v1[0] = 1
	s.Write("ckpt/a/0", deltaImg("a", 1, v0, []byte("e0")), nil)
	s.Write("ckpt/a/1", deltaImg("a", 1, v1, []byte("e1")), nil)
	k.Run()

	// Epoch 0's chunks are all still referenced by epoch 1 except the
	// boot-state version of chunk 0.
	s.Delete("ckpt/a/0")
	chunks, bytes := s.GC()
	if chunks != 1 || bytes != 1<<20 {
		t.Fatalf("GC after deleting epoch0: %d chunks, %d bytes", chunks, bytes)
	}
	// Dropping the last generation frees the pool entirely: the other
	// template chunk, the shared zero chunk, and the private chunk.
	s.Delete("ckpt/a/1")
	chunks, _ = s.GC()
	if chunks != 3 || s.UniqueBytes() != 0 {
		t.Fatalf("GC after deleting epoch1: %d chunks, unique=%d", chunks, s.UniqueBytes())
	}
	// Repeat deletes and GC runs are no-ops, not refcount corruption.
	s.Delete("ckpt/a/1")
	if chunks, bytes = s.GC(); chunks != 0 || bytes != 0 {
		t.Fatalf("idempotent GC reclaimed %d chunks", chunks)
	}
}

// TestDeleteDuringInFlightDelta is the retention-vs-transfer audit: a
// prior generation deleted (and the pool GCed) while a new epoch's
// transfer is still in flight must not strand the in-flight write —
// its chunk references are pinned at admission.
func TestDeleteDuringInFlightDelta(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 10e6, 0) // slow store: transfers stay in flight
	v0 := make([]uint32, 8)
	v0[2] = 1 // epoch 0 has a private chunk of its own
	info0, _ := s.Write("ckpt/a/0", deltaImg("a", 1, v0, []byte("e0")), nil)
	k.Run()

	v1 := append([]uint32(nil), v0...)
	v1[2] = 2
	done := false
	info1, err := s.Write("ckpt/a/1", deltaImg("a", 1, v1, []byte("e1")), func() { done = true })
	if err != nil {
		t.Fatal(err)
	}
	// Retention fires mid-transfer: drop the old generation and GC. The
	// only reclaimable chunk is epoch 0's superseded private version —
	// everything the in-flight write references was pinned at admission
	// and must survive.
	s.Delete("ckpt/a/0")
	if chunks, bytes := s.GC(); chunks != 1 || bytes != 1<<20 {
		t.Fatalf("mid-flight GC reclaimed %d chunks (%d bytes), want only the stale private chunk", chunks, bytes)
	}
	k.Run()
	if !done {
		t.Fatal("in-flight delta write never completed")
	}
	// The surviving object reads back intact.
	var got *vm.Image
	var gotErr error
	s.Read("ckpt/a/1", func(i *vm.Image, err error) { got, gotErr = i, err })
	k.Run()
	if gotErr != nil || got == nil {
		t.Fatalf("read after retention race: %v", gotErr)
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	if s.TotalBytes() != info1.Logical {
		t.Fatalf("TotalBytes %d after retention, want %d", s.TotalBytes(), info1.Logical)
	}
	if s.BytesWritten != uint64(info0.Sent+info1.Sent) {
		t.Fatalf("BytesWritten %d corrupted by retention race", s.BytesWritten)
	}
	// Every surviving chunk is referenced by the live generation.
	if chunks, _ := s.GC(); chunks != 0 {
		t.Fatalf("post-completion GC reclaimed %d chunks, want 0", chunks)
	}
}

func TestOverwriteDeltaReleasesPriorGeneration(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	v0 := make([]uint32, 4)
	v1 := []uint32{1, 1, 0, 0}
	s.Write("ckpt/a", deltaImg("a", 1, v0, []byte("gen0")), nil)
	k.Run()
	s.Write("ckpt/a", deltaImg("a", 1, v1, []byte("gen1")), nil)
	k.Run()
	// Gen0's boot versions of chunks 0 and 1 are unreferenced now.
	if chunks, bytes := s.GC(); chunks != 2 || bytes != 2<<20 {
		t.Fatalf("GC after overwrite: %d chunks, %d bytes", chunks, bytes)
	}
	var got *vm.Image
	s.Read("ckpt/a", func(i *vm.Image, err error) { got = i })
	k.Run()
	if got == nil || got.Data.Flatten()[0] != 'g' || string(got.Data.Flatten()) != "gen1" {
		t.Fatalf("overwrite left stale data: %q", got.Data.Flatten())
	}
}
