package storage

import (
	"fmt"

	"dvc/internal/obs"
	"dvc/internal/payload"
	"dvc/internal/vm"
)

// Content-addressed delta path: WriteDelta stores an image as a chunk
// manifest against a refcounted pool shared by every key in the store.
// Chunks the pool already holds cost manifest metadata only — the
// modelled wire bytes of an epoch are its genuinely new chunks. The
// pool is two-level:
//
//   - modelled page chunks, keyed by the derived identities in
//     Image.Pages (see vm.PageTable): these drive every observable
//     byte count (Sent, dedup stats, GC) and replay deterministically;
//   - functional blobs, keyed by the content hash of the image's real
//     rope chunks: these let Read reassemble a byte-identical image
//     and are never traced (their sizes depend on encoding details).

// ManifestEntryBytes is the modelled wire cost of one manifest entry:
// a 32-byte chunk identity, an 8-byte length, and framing slack. Even a
// fully deduplicated epoch pays this metadata per chunk of guest RAM.
const ManifestEntryBytes = 48

// chunkEntry is one modelled page chunk in the shared pool.
type chunkEntry struct {
	size int64
	refs int
}

// blobEntry is one functional rope chunk in the shared pool.
type blobEntry struct {
	data []byte
	refs int
}

// DeltaInfo summarises one WriteDelta: how many modelled bytes the
// manifest covers, how many actually crossed the wire, and the chunk
// dedup split.
type DeltaInfo struct {
	Logical     int64 // bytes the manifest describes (all of guest RAM)
	Sent        int64 // new chunk bytes + manifest metadata
	Chunks      int   // manifest length
	DedupChunks int   // chunks the pool already held
	NewChunks   int   // chunks transferred
}

// DedupRatio returns Logical/Sent (1 when nothing was saved).
func (d DeltaInfo) DedupRatio() float64 {
	if d.Sent <= 0 {
		return 1
	}
	return float64(d.Logical) / float64(d.Sent)
}

// SetTracer attaches an observability tracer (nil disables). The store
// feeds registry counters under store.delta.* and store.gc.*.
func (s *Store) SetTracer(t *obs.Tracer) { s.tracer = t }

// ensurePools lazily allocates the chunk pools so plain full-image
// stores pay nothing for the delta path.
func (s *Store) ensurePools() {
	if s.chunks == nil {
		s.chunks = make(map[payload.ChunkID]*chunkEntry)
		s.blobs = make(map[payload.ChunkID]*blobEntry)
	}
}

// pinManifest takes one reference on every chunk in the manifest,
// admitting chunks the pool has not seen, and returns the transfer
// summary. References are taken at admission — before the simulated
// transfer completes — so a concurrent Delete of a prior generation can
// never let GC reclaim chunks an in-flight write depends on.
func (s *Store) pinManifest(manifest []payload.ChunkRef) DeltaInfo {
	info := DeltaInfo{Chunks: len(manifest)}
	for _, ref := range manifest {
		info.Logical += ref.Bytes
		if e, ok := s.chunks[ref.ID]; ok {
			e.refs++
			info.DedupChunks++
			continue
		}
		s.chunks[ref.ID] = &chunkEntry{size: ref.Bytes, refs: 1}
		info.NewChunks++
		info.Sent += ref.Bytes
	}
	info.Sent += int64(len(manifest)) * ManifestEntryBytes
	return info
}

// releaseManifest drops one reference per manifest chunk. Entries stay
// resident at zero references until GC runs.
func (s *Store) releaseManifest(manifest []payload.ChunkRef) {
	for _, ref := range manifest {
		if e, ok := s.chunks[ref.ID]; ok && e.refs > 0 {
			e.refs--
		}
	}
}

// pinBlobs admits the image's functional rope chunks into the blob pool
// and returns their identities in rope order.
func (s *Store) pinBlobs(data payload.Bytes) []payload.ChunkID {
	chunks := data.Chunks()
	ids := make([]payload.ChunkID, 0, len(chunks))
	for _, c := range chunks {
		id := payload.ChunkIDOf(c)
		if e, ok := s.blobs[id]; ok {
			e.refs++
		} else {
			s.blobs[id] = &blobEntry{data: c, refs: 1}
		}
		ids = append(ids, id)
	}
	return ids
}

func (s *Store) releaseBlobs(ids []payload.ChunkID) {
	for _, id := range ids {
		if e, ok := s.blobs[id]; ok && e.refs > 0 {
			e.refs--
		}
	}
}

// releaseObject drops the pool references a stored object holds (no-op
// for plain full-image objects).
func (s *Store) releaseObject(o *Object) {
	if o == nil || o.Manifest == nil {
		return
	}
	s.releaseManifest(o.Manifest)
	s.releaseBlobs(o.blobs)
}

// WriteDelta stores a delta image under key, transferring only the
// chunks the store does not already hold. The image must carry a page
// table (vm.CaptureDeltaImage); the returned DeltaInfo is computed at
// admission, before the transfer completes. Overwrites release the
// prior generation's chunk references at completion, exactly when the
// new object replaces it.
func (s *Store) WriteDelta(key string, img *vm.Image, onDone func()) (DeltaInfo, error) {
	if img.Pages == nil {
		return DeltaInfo{}, fmt.Errorf("storage: WriteDelta %q: image has no page table", key)
	}
	s.ensurePools()
	manifest := img.Pages.AppendManifest(nil)
	info := s.pinManifest(manifest)
	blobs := s.pinBlobs(img.Data)

	// The stored object keeps the image metadata but not the rope: Read
	// reassembles the bytes from the blob pool, proving the manifest
	// path is functionally complete.
	meta := *img
	meta.Data = payload.Bytes{}

	s.DeltaWrites++
	s.BytesWritten += uint64(info.Sent)
	s.tracer.Inc("store.delta.writes", 1)
	s.tracer.Inc("store.delta.logical_bytes", float64(info.Logical))
	s.tracer.Inc("store.delta.sent_bytes", float64(info.Sent))
	s.tracer.Inc("store.delta.dedup_chunks", float64(info.DedupChunks))

	s.begin(info.Sent, func() {
		s.releaseObject(s.objects[key])
		s.objects[key] = &Object{
			Key:      key,
			Size:     info.Logical,
			Image:    &meta,
			StoredAt: s.kernel.Now(),
			Manifest: manifest,
			blobs:    blobs,
		}
		if onDone != nil {
			onDone()
		}
	})
	return info, nil
}

// reassemble rebuilds a delta object's image from the blob pool. Done
// at read admission: once the rope references the blob slices, a
// concurrent Delete+GC cannot pull the bytes out from under the read.
func (s *Store) reassemble(o *Object) (*vm.Image, error) {
	parts := make([][]byte, len(o.blobs))
	for i, id := range o.blobs {
		e, ok := s.blobs[id]
		if !ok {
			return nil, fmt.Errorf("storage: object %q references missing blob %s", o.Key, id)
		}
		parts[i] = e.data
	}
	img := *o.Image
	img.Data = payload.FromChunks(parts...)
	if err := img.Verify(); err != nil {
		return nil, fmt.Errorf("storage: object %q: %w", o.Key, err)
	}
	return &img, nil
}

// GC reclaims every pool chunk whose reference count has dropped to
// zero and reports the modelled page chunks and bytes freed. It reclaims
// in map order: the result is an integer sum and deletes commute, so the
// order cannot show.
func (s *Store) GC() (chunks int, bytes int64) {
	for id, e := range s.chunks {
		if e.refs == 0 {
			chunks++
			bytes += e.size
			delete(s.chunks, id)
		}
	}
	for id, e := range s.blobs {
		if e.refs == 0 {
			delete(s.blobs, id)
		}
	}
	s.tracer.Inc("store.gc.chunks", float64(chunks))
	s.tracer.Inc("store.gc.bytes", float64(bytes))
	return chunks, bytes
}

// UniqueBytes reports the modelled bytes resident in the shared chunk
// pool — the deduplicated footprint backing every delta object. Compare
// with TotalBytes, which sums per-object logical sizes.
func (s *Store) UniqueBytes() int64 {
	var n int64
	for _, e := range s.chunks {
		n += e.size
	}
	return n
}
