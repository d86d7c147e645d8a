package storage

import (
	"fmt"
	"testing"

	"dvc/internal/payload"
	"dvc/internal/sim"
	"dvc/internal/vm"
)

// fuzzOps decodes fuzz input one byte at a time; past the end it reads
// zeros, so every input is a complete program.
type fuzzOps []byte

func (f *fuzzOps) next() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

// image decodes one image: delta or full, with a page table of
// arbitrary shape (chunk size, RAM, template span, cursor, versions),
// often malformed, and a RAM size that may disagree with its table.
func (f *fuzzOps) image() *vm.Image {
	delta := f.next()&1 == 1
	n := int(f.next() % 12)
	chunk := int64(f.next()%8) - 1
	ram := int64(n)*chunk - int64(f.next()%8)
	flags := f.next()
	if flags&1 != 0 {
		ram += chunk
	}
	pt := &vm.PageTable{
		Lineage:   uint64(f.next() % 3),
		Template:  int64(f.next()%4) * chunk,
		ChunkSize: chunk,
		RAM:       ram,
		Cursor:    int64(f.next()) - 8,
		Versions:  make([]uint32, n),
	}
	if flags&2 != 0 {
		pt.Template++
	}
	for i := range pt.Versions {
		pt.Versions[i] = uint32(f.next() % 4)
	}
	img := &vm.Image{DomainName: "a", Addr: "x", RAMBytes: ram, Data: payload.Wrap([]byte{flags}), Pages: pt, Delta: delta}
	switch {
	case flags&4 != 0:
		img.RAMBytes++
	case flags&8 != 0:
		img.Pages = nil
	}
	return img
}

// wellFormed restates the page-table shape rules independently of
// vm.PageTable.Validate: a delta write must succeed exactly when they
// hold.
func wellFormed(img *vm.Image) bool {
	pt := img.Pages
	if pt == nil || pt.ChunkSize <= 0 || pt.RAM <= 0 || pt.RAM != img.RAMBytes {
		return false
	}
	chunks := (pt.RAM + pt.ChunkSize - 1) / pt.ChunkSize
	return int64(len(pt.Versions)) == chunks &&
		pt.Template >= 0 && pt.Template <= pt.RAM && pt.Template%pt.ChunkSize == 0 &&
		pt.Cursor >= 0 && pt.Cursor < pt.RAM
}

// FuzzStoreWrite drives the store through a decoded sequence of Write
// (delta or full, arbitrary table shapes and versions), transfer
// progress, Delete and GC. Nothing may panic. A write either errors (a
// delta image with a malformed table, or any image with negative RAM)
// and leaves the store untouched, or pins exactly what the reference
// pool (pool_diff_test.go) predicts: a delta image its table's chunks,
// a full image nothing. GC agrees with the reference, and once every
// key is deleted and GC runs, the pool is empty. The committed corpus
// (testdata/fuzz/FuzzStoreWrite) covers clean delta epochs, in-flight
// overwrites, full and delta writes under one key and malformed tables.
// Run:
//
//	go test -run '^$' -fuzz FuzzStoreWrite -fuzztime 10s ./internal/storage
func FuzzStoreWrite(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// A few dozen operations reach every pool state; a longer
		// program only slows the fuzzer's input minimization.
		ops := fuzzOps(data[:min(len(data), 256)])
		k := sim.NewKernel(1)
		s := newStore(k, 1e3, 0) // slow: transfers overlap
		o := newOracle(t)
		for step := 0; len(ops) > 0; step++ {
			key := fmt.Sprintf("ckpt/%d", ops.next()%3)
			switch ops.next() % 4 {
			case 0:
				img := ops.image()
				unique, deltas, written := s.UniqueBytes(), s.DeltaWrites, s.BytesWritten
				pinned := img.Pages // what the stored object holds references on
				if !img.Delta {
					pinned = nil
				}
				got, err := s.Write(key, img, func() { o.install(key, pinned) })
				switch {
				case img.Delta && (err == nil) != wellFormed(img):
					t.Fatalf("step %d: delta write of a well-formed=%v table returned %v", step, wellFormed(img), err)
				case err != nil && !img.Delta && img.RAMBytes >= 0:
					t.Fatalf("step %d: full write rejected: %v", step, err)
				case err != nil:
					if s.UniqueBytes() != unique || s.DeltaWrites != deltas || s.BytesWritten != written {
						t.Fatalf("step %d: rejected write changed the store: %v", step, err)
					}
				case img.Delta:
					if want := o.pin(img.Pages); got != want {
						t.Fatalf("step %d: Write %s = %+v, oracle %+v", step, key, got, want)
					}
				default:
					if want := (WriteInfo{Logical: img.RAMBytes, Sent: img.RAMBytes}); got != want {
						t.Fatalf("step %d: full Write %s = %+v, want %+v", step, key, got, want)
					}
				}
			case 1:
				k.RunFor(sim.Time(ops.next()) * sim.Millisecond)
			case 2:
				s.Delete(key)
				o.delete(key)
			default:
				gc, gb := s.GC()
				oc, ob := o.gc()
				if gc != oc || gb != ob {
					t.Fatalf("step %d: GC = (%d, %d), oracle (%d, %d)", step, gc, gb, oc, ob)
				}
			}
			if got, want := s.UniqueBytes(), o.unique(); got != want {
				t.Fatalf("step %d: UniqueBytes = %d, oracle %d", step, got, want)
			}
		}
		k.Run()
		for _, key := range s.Keys("") {
			s.Delete(key)
		}
		s.GC()
		if s.UniqueBytes() != 0 {
			t.Fatalf("pool holds %d bytes after every key was deleted and collected", s.UniqueBytes())
		}
	})
}
