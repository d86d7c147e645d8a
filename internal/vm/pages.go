package vm

import (
	"fmt"
	"hash/fnv"
)

// DeltaChunkBytes is the modelled page-chunk granularity of the
// delta checkpoint path: guest RAM is named in 1 MiB ranges,
// each carrying a version counter bumped when the dirty sweep touches
// it. Coarser than a 4 KiB page (keeping tables small at multi-GiB
// guests), fine enough that one epoch's dirt maps to a proportional
// number of changed chunks.
const DeltaChunkBytes = 1 << 20

// PageTable is the modelled identity map of a domain's RAM: which
// content each fixed-size chunk of guest memory holds, expressed as a
// version counter per chunk. It is what the storage layer dedups on:
// chunk identities (Chunk) are structural keys, never hashed from real
// bytes, so they are a pure function of (domain lineage, chunk index,
// version) and replay deterministically:
//
//   - version 0 inside the template span: a 'T' chunk, shared by every
//     domain booted from the same golden image (cross-VM dedup);
//   - version 0 past the template span: a 'Z' zero chunk, one identity
//     per size (all untouched RAM everywhere dedups to it);
//   - version >= 1: a 'P' chunk private to this domain's lineage —
//     re-dirtying bumps the version and mints a fresh identity.
//
// The table travels inside every image (Image.Pages) so a restored
// domain keeps its chunk lineage and the next epoch dedups against the
// prior one, on whichever node it lands.
type PageTable struct {
	Lineage   uint64 // FNV-1a of the domain name: the private-chunk namespace
	Template  int64  // leading bytes booted from the golden image (chunk-aligned)
	ChunkSize int64
	RAM       int64
	Versions  []uint32 // per-chunk write generation; 0 = untouched since boot
	Cursor    int64    // next byte offset the dirty sweep will touch
}

// newPageTable builds the boot-time table: everything untouched, the
// sweep cursor at offset 0.
func newPageTable(name string, ram, template int64) *PageTable {
	if template > ram {
		template = ram
	}
	template = template / DeltaChunkBytes * DeltaChunkBytes
	h := fnv.New64a()
	h.Write([]byte(name))
	n := int((ram + DeltaChunkBytes - 1) / DeltaChunkBytes)
	return &PageTable{
		Lineage:   h.Sum64(),
		Template:  template,
		ChunkSize: DeltaChunkBytes,
		RAM:       ram,
		Versions:  make([]uint32, n),
	}
}

// advance folds dirty modelled bytes into the table: a round-robin
// sweep from the cursor, bumping the version of every chunk it enters.
// The sweep mirrors DirtyBytesSince's model — distinct bytes, saturating
// at RAM — so dirty == RAM touches every chunk exactly once (modulo the
// chunk the cursor starts mid-way through, which legitimately counts in
// both the wrapping and the wrapped-to epoch).
func (t *PageTable) advance(dirty int64) {
	if dirty <= 0 || t.RAM == 0 {
		return
	}
	if dirty > t.RAM {
		dirty = t.RAM
	}
	for dirty > 0 {
		ci := int(t.Cursor / t.ChunkSize)
		chunkEnd := (int64(ci) + 1) * t.ChunkSize
		if chunkEnd > t.RAM {
			chunkEnd = t.RAM
		}
		step := chunkEnd - t.Cursor
		if step > dirty {
			step = dirty
		}
		t.Versions[ci]++
		t.Cursor += step
		if t.Cursor >= t.RAM {
			t.Cursor = 0
		}
		dirty -= step
	}
}

// chunkBytes returns the size of chunk ci (the last chunk may be short).
func (t *PageTable) chunkBytes(ci int) int64 {
	off := int64(ci) * t.ChunkSize
	size := t.ChunkSize
	if off+size > t.RAM {
		size = t.RAM - off
	}
	return size
}

// ChunkKind is the identity namespace of a modelled RAM chunk.
type ChunkKind uint32

// The three chunk namespaces (see PageTable).
const (
	TemplateChunk ChunkKind = 'T'
	ZeroChunk     ChunkKind = 'Z'
	PrivateChunk  ChunkKind = 'P'
)

// ChunkKey is the structural identity of one modelled RAM chunk: two
// chunks hold the same modelled content exactly when their keys are
// equal. Only the fields of the key's kind are set:
//
//   - TemplateChunk: Offset and Size;
//   - ZeroChunk: Size;
//   - PrivateChunk: Lineage, Index and Version (the size is not part of
//     a private identity; it rides alongside, as Chunk returns it).
type ChunkKey struct {
	Kind    ChunkKind
	Version uint32
	Lineage uint64
	Index   int64
	Offset  int64
	Size    int64
}

// Chunk returns the identity and size of chunk ci at the table's current
// version. This is the one place the template/zero/private rules live;
// the storage pool calls it once per chunk to pin and to release.
//
//dvc:hotpath
func (t *PageTable) Chunk(ci int) (ChunkKey, int64) {
	off := int64(ci) * t.ChunkSize
	size := t.chunkBytes(ci)
	switch v := t.Versions[ci]; {
	case v == 0 && off+size <= t.Template:
		return ChunkKey{Kind: TemplateChunk, Offset: off, Size: size}, size
	case v == 0:
		return ChunkKey{Kind: ZeroChunk, Size: size}, size
	default:
		return ChunkKey{Kind: PrivateChunk, Version: v, Lineage: t.Lineage, Index: int64(ci)}, size
	}
}

// Validate checks that the table is well formed for a domain of ram
// bytes: a positive chunk size, one version per chunk of RAM, a
// chunk-aligned template span inside RAM and a sweep cursor inside RAM.
// Restore and the delta store reject any other table, so a corrupt or
// hostile image cannot make a later sweep index past Versions or make
// the chunk pool allocate beyond the table it was handed.
func (t *PageTable) Validate(ram int64) error {
	switch {
	case t.ChunkSize <= 0:
		return fmt.Errorf("vm: page table chunk size %d", t.ChunkSize)
	case t.RAM != ram || ram <= 0:
		return fmt.Errorf("vm: page table covers %d bytes of a %d-byte domain", t.RAM, ram)
	}
	n := t.RAM / t.ChunkSize
	if t.RAM%t.ChunkSize != 0 {
		n++
	}
	switch {
	case int64(len(t.Versions)) != n:
		return fmt.Errorf("vm: page table has %d versions for %d chunks", len(t.Versions), n)
	case t.Template < 0 || t.Template > t.RAM || t.Template%t.ChunkSize != 0:
		return fmt.Errorf("vm: page table template span %d not chunk-aligned within %d bytes", t.Template, t.RAM)
	case t.Cursor < 0 || t.Cursor >= t.RAM:
		return fmt.Errorf("vm: page table cursor %d outside %d bytes", t.Cursor, t.RAM)
	}
	return nil
}

// UntouchedBytes returns how much RAM is still at version 0 — the span
// a delta transfer can assume present at any store that has seen the
// golden image (template chunks) or any image at all (zero chunks).
func (t *PageTable) UntouchedBytes() int64 {
	var sum int64
	for ci := range t.Versions {
		if t.Versions[ci] == 0 {
			sum += t.chunkBytes(ci)
		}
	}
	return sum
}

// Clone deep-copies the table (nil in, nil out).
func (t *PageTable) Clone() *PageTable {
	if t == nil {
		return nil
	}
	c := *t
	c.Versions = append([]uint32(nil), t.Versions...)
	return &c
}

// ensurePages lazily builds the domain's page table. Content is a pure
// function of (name, RAM, config), so creation order cannot leak into
// any observable state.
func (d *Domain) ensurePages() *PageTable {
	if d.pages == nil {
		d.pages = newPageTable(d.name, d.ram, d.hv.host.Xen.TemplateBytes)
	}
	return d.pages
}

// UntouchedBytes reports how much of the domain's RAM has never been
// dirtied (per the page table, i.e. as of the last MarkClean or
// capture).
func (d *Domain) UntouchedBytes() int64 { return d.ensurePages().UntouchedBytes() }
