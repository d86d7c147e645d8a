package vm

import (
	"testing"

	"dvc/internal/sim"
)

// chunkRef is one chunk's identity and size, as PageTable.Chunk names it.
type chunkRef struct {
	Key   ChunkKey
	Bytes int64
}

// manifestOf lists every chunk of the table in index order.
func manifestOf(t *PageTable) []chunkRef {
	out := make([]chunkRef, len(t.Versions))
	for ci := range out {
		out[ci].Key, out[ci].Bytes = t.Chunk(ci)
	}
	return out
}

func TestPageTableAdvanceAndManifest(t *testing.T) {
	ram := int64(8 * DeltaChunkBytes)
	pt := newPageTable("vm0", ram, 2*DeltaChunkBytes)
	m0 := manifestOf(pt)
	if len(m0) != 8 {
		t.Fatalf("manifest has %d chunks, want 8", len(m0))
	}
	var total int64
	for _, ref := range m0 {
		total += ref.Bytes
	}
	if total != ram {
		t.Fatalf("manifest covers %d bytes, want %d", total, ram)
	}
	// Boot state: two template chunks, six zero chunks (all one identity).
	if m0[0].Key == m0[1].Key {
		t.Fatal("template chunks at different offsets share an identity")
	}
	for i := 3; i < 8; i++ {
		if m0[i].Key != m0[2].Key {
			t.Fatalf("zero chunk %d has its own identity", i)
		}
	}
	if pt.UntouchedBytes() != ram {
		t.Fatalf("untouched %d at boot, want %d", pt.UntouchedBytes(), ram)
	}

	// Dirty three chunks: the sweep starts at offset 0.
	pt.advance(3 * DeltaChunkBytes)
	m1 := manifestOf(pt)
	for i := 0; i < 3; i++ {
		if m1[i].Key == m0[i].Key {
			t.Fatalf("dirtied chunk %d kept its identity", i)
		}
	}
	for i := 3; i < 8; i++ {
		if m1[i].Key != m0[i].Key {
			t.Fatalf("untouched chunk %d changed identity", i)
		}
	}
	if pt.UntouchedBytes() != 5*DeltaChunkBytes {
		t.Fatalf("untouched %d after sweep", pt.UntouchedBytes())
	}

	// A second epoch's dirt continues round-robin from the cursor, so
	// the previously dirtied chunks keep their (new) identities.
	pt.advance(2 * DeltaChunkBytes)
	m2 := manifestOf(pt)
	for i := 0; i < 3; i++ {
		if m2[i].Key != m1[i].Key {
			t.Fatalf("chunk %d re-dirtied out of sweep order", i)
		}
	}
	for i := 3; i < 5; i++ {
		if m2[i].Key == m1[i].Key {
			t.Fatalf("swept chunk %d kept its identity", i)
		}
	}
	// Saturating dirt touches everything.
	pt.advance(ram)
	if pt.UntouchedBytes() != 0 {
		t.Fatalf("untouched %d after saturating sweep", pt.UntouchedBytes())
	}
}

func TestPageTableCrossVMIdentity(t *testing.T) {
	ram := int64(4 * DeltaChunkBytes)
	a := newPageTable("vm-a", ram, DeltaChunkBytes)
	b := newPageTable("vm-b", ram, DeltaChunkBytes)
	ma, mb := manifestOf(a), manifestOf(b)
	// Untouched template and zero chunks dedup across VMs.
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("boot chunk %d differs across VMs", i)
		}
	}
	// Dirtied chunks are private to each VM's lineage.
	a.advance(DeltaChunkBytes)
	b.advance(DeltaChunkBytes)
	if manifestOf(a)[0].Key == manifestOf(b)[0].Key {
		t.Fatal("private chunks of different VMs share an identity")
	}
	// Clone is deep: advancing the clone leaves the original alone.
	c := a.Clone()
	c.advance(DeltaChunkBytes)
	if manifestOf(a)[1].Key != ma[1].Key {
		t.Fatal("advancing a clone mutated the original table")
	}
	var nilPT *PageTable
	if nilPT.Clone() != nil {
		t.Fatal("Clone of nil not nil")
	}
}

func TestDeltaImageCarriesManifest(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(10e6)
	d.MarkClean()
	e.k.RunFor(5 * sim.Second)
	d.Pause()
	img, err := d.Capture(true)
	if err != nil {
		t.Fatal(err)
	}
	if img.Pages == nil {
		t.Fatal("delta image carries no page table")
	}
	if img.SizeBytes() != 50_000_000+(1<<30)/512 {
		t.Fatalf("delta modelled size %d", img.SizeBytes())
	}
	var total int64
	for _, ref := range manifestOf(img.Pages) {
		total += ref.Bytes
	}
	if total != d.RAMBytes() {
		t.Fatalf("manifest covers %d bytes, want all of RAM", total)
	}
	// The capture folded the dirt: a MarkClean right after is a no-op on
	// the table, so an idle follow-up epoch dedups to zero new chunks.
	before := manifestOf(img.Pages)
	d.MarkClean()
	after := manifestOf(d.ensurePages())
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("post-capture MarkClean changed chunk %d", i)
		}
	}
}

// TestCleanMarkSurvivesRestore is the save/restore edge case of the
// dirty model: restore replaces the guest OS object, and the clean mark
// must carry over (the image holds everything up to the capture), so
// post-restore accounting charges only post-restore writes.
func TestCleanMarkSurvivesRestore(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(10e6)
	d.MarkClean()
	e.k.RunFor(30 * sim.Second) // plenty of pre-capture history
	d.Pause()
	img, err := d.Capture(true)
	if err != nil {
		t.Fatal(err)
	}
	lineage := img.Pages.Lineage
	d.Destroy()
	e.k.RunFor(5 * sim.Second)

	d2, err := e.hv(0).RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Unpause(); err != nil {
		t.Fatal(err)
	}
	if got := d2.DirtyBytesSince(d2.CleanMark()); got != 0 {
		t.Fatalf("restored domain starts %d bytes dirty, want 0", got)
	}
	e.k.RunFor(2 * sim.Second)
	if got := d2.DirtyBytesSince(d2.CleanMark()); got != 20_000_000 {
		t.Fatalf("2s at 10MB/s after restore dirtied %d bytes", got)
	}
	// The chunk lineage crossed the restore: the next delta epoch dedups
	// against the pre-restore epochs.
	d2.Pause()
	img2, err := d2.Capture(true)
	if err != nil {
		t.Fatal(err)
	}
	if img2.Pages.Lineage != lineage {
		t.Fatal("restore lost the page-table lineage")
	}
	m1, m2 := manifestOf(img.Pages), manifestOf(img2.Pages)
	same := 0
	for i := range m1 {
		if m1[i] == m2[i] {
			same++
		}
	}
	if same == 0 {
		t.Fatal("post-restore epoch shares no chunks with the captured image")
	}
}

// TestDirtySaturationAfterRestore: saturation keeps holding at RAM on
// the restored OS object.
func TestDirtySaturationAfterRestore(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(1e9)
	d.MarkClean()
	e.k.RunFor(sim.Second)
	d.Pause()
	img, err := d.Capture(true)
	if err != nil {
		t.Fatal(err)
	}
	d.Destroy()
	d2, err := e.hv(0).RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Unpause(); err != nil {
		t.Fatal(err)
	}
	e.k.RunFor(10 * sim.Second) // 10 GB of writes > 1 GiB RAM
	if got := d2.DirtyBytesSince(d2.CleanMark()); got != 1<<30 {
		t.Fatalf("dirty bytes %d after restore, want saturation at RAM", got)
	}
}

// TestZeroRateOverride: a negative rate models a write-quiescent guest;
// zero still means "use the default".
func TestZeroRateOverride(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(-1)
	mark := d.MarkClean()
	e.k.RunFor(10 * sim.Second)
	if got := d.DirtyBytesSince(mark); got != 0 {
		t.Fatalf("quiescent guest dirtied %d bytes", got)
	}
	d.SetDirtyRate(0)
	if got := d.DirtyBytesSince(mark); got != int64(DefaultDirtyRate)*10 {
		t.Fatalf("rate 0 gave %d bytes, want default rate", got)
	}
}

// TestChunkKeyDomainSeparation pins the identity rules: Chunk is a pure
// function of the table, distinct kinds never share a key, and every
// field of a kind's key (template offset and size, zero size, private
// lineage, index and version) feeds its identity.
func TestChunkKeyDomainSeparation(t *testing.T) {
	// 2 template chunks, then zero chunks, then a short tail chunk.
	ram := int64(5*DeltaChunkBytes + DeltaChunkBytes/2)
	pt := newPageTable("vm0", ram, 2*DeltaChunkBytes)
	pt.Versions[3] = 1
	pt.Versions[4] = 1
	keys := map[ChunkKey]ChunkKind{}
	note := func(k ChunkKey) {
		if kind, seen := keys[k]; seen && kind != k.Kind {
			t.Fatalf("key %+v shared by kinds %c and %c", k, kind, k.Kind)
		}
		keys[k] = k.Kind
	}
	m := manifestOf(pt)
	for ci, ref := range m {
		if again, _ := pt.Chunk(ci); again != ref.Key {
			t.Fatalf("Chunk(%d) not deterministic", ci)
		}
		note(ref.Key)
	}
	if m[0].Key.Kind != TemplateChunk || m[2].Key.Kind != ZeroChunk || m[3].Key.Kind != PrivateChunk {
		t.Fatalf("kinds %c %c %c, want T Z P", m[0].Key.Kind, m[2].Key.Kind, m[3].Key.Kind)
	}
	// Template: offset and size both feed the key.
	if m[0].Key == m[1].Key {
		t.Fatal("template chunks at different offsets share a key")
	}
	// Zero: the short tail chunk is its own identity.
	pt.Versions[3], pt.Versions[4] = 0, 0
	tail, tailSize := pt.Chunk(5)
	if tailSize != DeltaChunkBytes/2 || tail.Kind != ZeroChunk || tail == m[2].Key {
		t.Fatalf("tail zero chunk %+v (%d B) shares the full-size zero key", tail, tailSize)
	}
	note(tail)
	// Private: lineage, index and version each move the key.
	pt.Versions[3], pt.Versions[4] = 1, 1
	base, _ := pt.Chunk(3)
	other, _ := pt.Chunk(4)
	pt.Versions[3] = 2
	bumped, _ := pt.Chunk(3)
	alien := pt.Clone()
	alien.Lineage++
	foreign, _ := alien.Chunk(3)
	for _, alt := range []ChunkKey{other, bumped, foreign} {
		if alt == base {
			t.Fatalf("private key component did not change the key: %+v", alt)
		}
		note(alt)
	}
	// A template and a private chunk at the same index never meet, even
	// when the words line up.
	pt.Versions[0] = 1
	priv0, _ := pt.Chunk(0)
	note(priv0)
	if priv0 == m[0].Key {
		t.Fatal("private chunk kept its template key")
	}
}

// TestRestoreRejectsMalformedPageTable: RestoreDomain checks the page
// table's shape and returns an error instead of restoring a domain whose
// next sweep would divide by zero or index past its versions.
func TestRestoreRejectsMalformedPageTable(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(10e6)
	e.k.RunFor(5 * sim.Second)
	d.Pause()
	img, err := d.Capture(true)
	if err != nil {
		t.Fatal(err)
	}
	d.Destroy()
	for _, tc := range []struct {
		name   string
		mangle func(*PageTable)
	}{
		{"zero chunk size", func(p *PageTable) { p.ChunkSize = 0 }},
		{"truncated versions", func(p *PageTable) { p.Versions = p.Versions[:3] }},
		{"cursor past RAM", func(p *PageTable) { p.Cursor = 4 * p.RAM }},
	} {
		bad := *img
		bad.Pages = img.Pages.Clone()
		tc.mangle(bad.Pages)
		if _, err := e.hv(0).RestoreDomain(&bad); err == nil {
			t.Fatalf("%s: restore accepted a malformed page table", tc.name)
		}
	}
	// The rejections left nothing behind: the intact image restores and
	// captures again.
	d2, err := e.hv(0).RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Capture(true); err != nil {
		t.Fatal(err)
	}
}

// TestPageTableValidate covers every shape rule on the boot table.
func TestPageTableValidate(t *testing.T) {
	ram := int64(3*DeltaChunkBytes + 7)
	good := newPageTable("vm0", ram, 2*DeltaChunkBytes)
	if err := good.Validate(ram); err != nil {
		t.Fatalf("boot table rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mangle func(*PageTable)
	}{
		{"negative chunk size", func(p *PageTable) { p.ChunkSize = -1 }},
		{"RAM differs from the domain", func(p *PageTable) { p.RAM += DeltaChunkBytes }},
		{"extra version", func(p *PageTable) { p.Versions = append(p.Versions, 0) }},
		{"template past RAM", func(p *PageTable) { p.Template = 4 * DeltaChunkBytes }},
		{"template misaligned", func(p *PageTable) { p.Template = DeltaChunkBytes + 1 }},
		{"negative template", func(p *PageTable) { p.Template = -DeltaChunkBytes }},
		{"cursor at RAM", func(p *PageTable) { p.Cursor = p.RAM }},
		{"negative cursor", func(p *PageTable) { p.Cursor = -1 }},
	} {
		bad := good.Clone()
		tc.mangle(bad)
		if err := bad.Validate(ram); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
