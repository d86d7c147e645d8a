package storage

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"dvc/internal/payload"
	"dvc/internal/sim"
	"dvc/internal/vm"
)

// oraclePool is the reference algorithm for the modelled chunk pool:
// one map entry per structural chunk key, pinned and released chunk by
// chunk, and a GC that sweeps the whole map. The store's dense
// per-lineage pool must agree with it on every observable figure.
type oraclePool struct {
	t       *testing.T
	chunks  map[vm.ChunkKey]*chunkEntry
	objects map[string]*vm.PageTable
	repins  int // zero-reference chunks deduplicated before a GC reclaimed them
}

func newOracle(t *testing.T) *oraclePool {
	return &oraclePool{t: t, chunks: map[vm.ChunkKey]*chunkEntry{}, objects: map[string]*vm.PageTable{}}
}

func (o *oraclePool) pin(pt *vm.PageTable) WriteInfo {
	info := WriteInfo{Chunks: len(pt.Versions)}
	for ci := range pt.Versions {
		key, size := pt.Chunk(ci)
		info.Logical += size
		if e, ok := o.chunks[key]; ok {
			if e.refs == 0 {
				o.repins++
			}
			e.refs++
			info.DedupChunks++
			continue
		}
		o.chunks[key] = &chunkEntry{size: size, refs: 1}
		info.NewChunks++
		info.Sent += size
	}
	info.Sent += int64(len(pt.Versions)) * ManifestEntryBytes
	return info
}

func (o *oraclePool) release(pt *vm.PageTable) {
	for ci := range pt.Versions {
		key, _ := pt.Chunk(ci)
		e, ok := o.chunks[key]
		if !ok || e.refs == 0 {
			o.t.Fatalf("oracle: release of unpinned chunk %d %+v", ci, key)
		}
		e.refs--
	}
}

// install mirrors a write's completion: the new object replaces, and
// releases, the generation stored under its key.
func (o *oraclePool) install(key string, pt *vm.PageTable) {
	if old := o.objects[key]; old != nil {
		o.release(old)
	}
	o.objects[key] = pt
}

func (o *oraclePool) delete(key string) {
	if old := o.objects[key]; old != nil {
		o.release(old)
	}
	delete(o.objects, key)
}

func (o *oraclePool) gc() (chunks int, bytes int64) {
	for key, e := range o.chunks {
		if e.refs == 0 {
			chunks++
			bytes += e.size
			delete(o.chunks, key)
		}
	}
	return chunks, bytes
}

func (o *oraclePool) unique() int64 {
	var n int64
	for _, e := range o.chunks {
		n += e.size
	}
	return n
}

// pagesImg wraps a page table in a delta image with a small functional
// payload.
func pagesImg(name string, pt *vm.PageTable, data []byte) *vm.Image {
	return &vm.Image{
		DomainName:   name,
		Addr:         "x",
		RAMBytes:     pt.RAM,
		Data:         payload.FromChunks(data),
		Checksum:     crc32.ChecksumIEEE(data),
		PayloadBytes: 1,
		Pages:        pt,
		Delta:        true,
	}
}

// TestChunkPoolMatchesOracle drives the store and the oracle through
// seeded random sequences of delta Writes (overwrites included, often
// while the previous write to the key is still in flight), transfer
// progress, Delete and GC, and compares WriteInfo, GC results and
// UniqueBytes after every step. Two lineages share the template chunks;
// the second has a short tail chunk; untouched chunks repeat the zero
// identity within one table; and tables revert to earlier versions, so
// zero-reference chunks are re-pinned before a GC reclaims them.
func TestChunkPoolMatchesOracle(t *testing.T) {
	const mib = 1 << 20
	repins := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		s := newStore(k, 20e6, 0) // slow: several transfers overlap
		o := newOracle(t)
		doms := []struct {
			name    string
			pt      *vm.PageTable
			history []*vm.PageTable
		}{
			{name: "a", pt: &vm.PageTable{Lineage: 1, Template: 2 * mib, ChunkSize: mib, RAM: 8 * mib, Versions: make([]uint32, 8)}},
			{name: "b", pt: &vm.PageTable{Lineage: 2, Template: 2 * mib, ChunkSize: mib, RAM: 5*mib + mib/2, Versions: make([]uint32, 6)}},
		}
		for step := 0; step < 400; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 5: // write an epoch
				d := &doms[rng.Intn(len(doms))]
				pt := d.pt.Clone()
				if len(d.history) > 0 && rng.Intn(4) == 0 {
					pt = d.history[rng.Intn(len(d.history))].Clone()
				} else {
					for n := rng.Intn(3); n >= 0; n-- {
						pt.Versions[rng.Intn(len(pt.Versions))]++
					}
				}
				d.pt = pt
				d.history = append(d.history, pt)
				key := fmt.Sprintf("ckpt/%s/%d", d.name, rng.Intn(3))
				want := o.pin(pt)
				got, err := s.Write(key, pagesImg(d.name, pt, []byte(where)), func() { o.install(key, pt) })
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if got != want {
					t.Fatalf("%s: Write %s = %+v, oracle %+v", where, key, got, want)
				}
			case op < 7: // let transfers progress
				k.RunFor(sim.Time(rng.Intn(400)) * sim.Millisecond)
			case op < 8:
				key := fmt.Sprintf("ckpt/%s/%d", doms[rng.Intn(len(doms))].name, rng.Intn(3))
				s.Delete(key)
				o.delete(key)
			default:
				gc, gb := s.GC()
				oc, ob := o.gc()
				if gc != oc || gb != ob {
					t.Fatalf("%s: GC = (%d, %d), oracle (%d, %d)", where, gc, gb, oc, ob)
				}
			}
			if got, want := s.UniqueBytes(), o.unique(); got != want {
				t.Fatalf("%s: UniqueBytes = %d, oracle %d", where, got, want)
			}
		}
		// Drain, then drop everything: both pools empty out together.
		k.Run()
		for _, key := range s.Keys("") {
			s.Delete(key)
			o.delete(key)
		}
		gc, gb := s.GC()
		oc, ob := o.gc()
		if gc != oc || gb != ob || s.UniqueBytes() != 0 || o.unique() != 0 {
			t.Fatalf("seed %d: final GC = (%d, %d), oracle (%d, %d), unique %d", seed, gc, gb, oc, ob, s.UniqueBytes())
		}
		repins += o.repins
	}
	if repins == 0 {
		t.Fatal("no sequence re-pinned a zero-reference chunk before GC")
	}
}

// TestReleaseUnpinnedChunkPanics: a release without a matching pin is a
// refcount invariant failure, not a silent no-op.
func TestReleaseUnpinnedChunkPanics(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	v := []uint32{0, 0, 1, 0}
	if _, err := s.Write("ckpt/a/0", deltaImg("a", 1, v, []byte("e0")), nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	obj, _ := s.Stat("ckpt/a/0")
	s.Delete("ckpt/a/0")
	defer func() {
		if recover() == nil {
			t.Error("double release of a chunk did not panic")
		}
	}()
	s.chunks.release(obj.Key, obj.Image.Pages)
}
