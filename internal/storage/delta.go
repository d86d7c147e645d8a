package storage

import (
	"fmt"

	"dvc/internal/obs"
	"dvc/internal/vm"
)

// Delta path: Write stores a delta image against a refcounted chunk
// pool shared by every key in the store. Chunks the pool already holds
// cost manifest metadata only — the modelled wire bytes of an epoch are
// its genuinely new chunks. Chunks are named by the structural keys of
// Image.Pages (vm.PageTable.Chunk), never by hashing bytes, so every
// observable byte count (Sent, dedup stats, GC) replays
// deterministically.

// ManifestEntryBytes is the modelled wire cost of one manifest entry:
// a 32-byte chunk identity, an 8-byte length, and framing slack. Even a
// fully deduplicated epoch pays this metadata per chunk of guest RAM.
const ManifestEntryBytes = 48

// chunkEntry is one shared (template or zero) page chunk in the pool.
type chunkEntry struct {
	size int64
	refs int
}

// privateChunk is one retained version of a lineage's page chunk.
type privateChunk struct {
	version uint32
	refs    int32
	size    int64
}

// chunkPool holds the modelled page chunks. Private chunks live in a
// dense table per lineage, indexed by chunk index; each slot lists the
// versions still resident (one or two in steady state), so pin, release
// and GC never hash. Template and zero chunks, shared across lineages,
// sit in a small map.
type chunkPool struct {
	private  map[uint64][][]privateChunk
	shared   map[vm.ChunkKey]*chunkEntry
	resident int64 // modelled bytes held, referenced or not
}

func newChunkPool() *chunkPool {
	return &chunkPool{
		private: make(map[uint64][][]privateChunk),
		shared:  make(map[vm.ChunkKey]*chunkEntry),
	}
}

// SetTracer attaches an observability tracer (nil disables). The store
// feeds registry counters under store.delta.* and store.gc.*.
func (s *Store) SetTracer(t *obs.Tracer) { s.tracer = t }

// lineage returns the private-chunk slots of one lineage, grown to at
// least n chunks.
func (p *chunkPool) lineage(id uint64, n int) [][]privateChunk {
	slots := p.private[id]
	if len(slots) < n {
		slots = append(slots, make([][]privateChunk, n-len(slots))...)
		p.private[id] = slots
	}
	return slots
}

// pin takes one reference on every chunk of the table, admitting chunks
// the pool has not seen, and returns the transfer summary. A resident
// chunk dedups even at zero references (it stays until GC). References
// are taken at admission — before the simulated transfer completes — so
// a concurrent Delete of a prior generation can never let GC reclaim
// chunks an in-flight write depends on.
func (p *chunkPool) pin(pt *vm.PageTable) WriteInfo {
	info := WriteInfo{Chunks: len(pt.Versions)}
	var slots [][]privateChunk // this lineage's, fetched at its first private chunk
	for ci := range pt.Versions {
		key, size := pt.Chunk(ci)
		info.Logical += size
		if key.Kind == vm.PrivateChunk {
			if slots == nil {
				slots = p.lineage(pt.Lineage, len(pt.Versions))
			}
			if pinVersion(slots[ci], key.Version) {
				info.DedupChunks++
				continue
			}
			slots[ci] = append(slots[ci], privateChunk{version: key.Version, refs: 1, size: size})
		} else {
			if e, ok := p.shared[key]; ok {
				e.refs++
				info.DedupChunks++
				continue
			}
			p.shared[key] = &chunkEntry{size: size, refs: 1}
		}
		info.NewChunks++
		info.Sent += size
		p.resident += size
	}
	info.Sent += int64(len(pt.Versions)) * ManifestEntryBytes
	return info
}

// pinVersion takes a reference on version v if the slot holds it.
func pinVersion(slot []privateChunk, v uint32) bool {
	for i := range slot {
		if slot[i].version == v {
			slot[i].refs++
			return true
		}
	}
	return false
}

// release drops the reference pin took for every chunk of the table.
// Chunks stay resident at zero references until GC runs. Releasing a
// chunk that holds no reference is a refcount invariant failure (a
// double release) and panics.
func (p *chunkPool) release(obj string, pt *vm.PageTable) {
	slots := p.private[pt.Lineage]
	for ci := range pt.Versions {
		key, _ := pt.Chunk(ci)
		if key.Kind == vm.PrivateChunk {
			if ci < len(slots) && releaseVersion(slots[ci], key.Version) {
				continue
			}
		} else if e, ok := p.shared[key]; ok && e.refs > 0 {
			e.refs--
			continue
		}
		panic(fmt.Sprintf("storage: object %q releases unpinned chunk %d %+v", obj, ci, key))
	}
}

// releaseVersion drops a reference on version v if the slot holds one.
func releaseVersion(slot []privateChunk, v uint32) bool {
	for i := range slot {
		if slot[i].version == v && slot[i].refs > 0 {
			slot[i].refs--
			return true
		}
	}
	return false
}

// gc reclaims every zero-reference chunk and reports the chunks and
// bytes freed. Private slots compact in place, keeping their capacity,
// so a steady-state epoch allocates nothing per chunk; a lineage left
// with no chunk at all is dropped. It walks maps in map order: the
// result is an integer sum and deletes commute, so the order cannot
// show.
func (p *chunkPool) gc() (chunks int, bytes int64) {
	for id, slots := range p.private {
		live := 0
		for ci, slot := range slots {
			kept := slot[:0]
			for _, c := range slot {
				if c.refs == 0 {
					chunks++
					bytes += c.size
					continue
				}
				kept = append(kept, c)
			}
			slots[ci] = kept
			live += len(kept)
		}
		if live == 0 {
			delete(p.private, id)
		}
	}
	for key, e := range p.shared {
		if e.refs == 0 {
			chunks++
			bytes += e.size
			delete(p.shared, key)
		}
	}
	p.resident -= bytes
	return chunks, bytes
}

// GC reclaims every pool chunk whose reference count has dropped to
// zero and reports the modelled chunks and bytes freed.
func (s *Store) GC() (chunks int, bytes int64) {
	if s.chunks != nil {
		chunks, bytes = s.chunks.gc()
	}
	s.tracer.Inc("store.gc.chunks", float64(chunks))
	s.tracer.Inc("store.gc.bytes", float64(bytes))
	return chunks, bytes
}

// UniqueBytes reports the modelled bytes resident in the shared chunk
// pool — the deduplicated footprint backing every delta object. Compare
// with TotalBytes, which sums per-object logical sizes.
func (s *Store) UniqueBytes() int64 {
	if s.chunks == nil {
		return 0
	}
	return s.chunks.resident
}
