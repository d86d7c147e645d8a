package vm

import (
	"testing"

	"dvc/internal/payload"
	"dvc/internal/sim"
)

func manifestOf(t *PageTable) []payload.ChunkRef { return t.AppendManifest(nil) }

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
	if m0[0].ID == m0[1].ID {
		t.Fatal("template chunks at different offsets share an identity")
	}
	for i := 3; i < 8; i++ {
		if m0[i].ID != m0[2].ID {
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
		if m1[i].ID == m0[i].ID {
			t.Fatalf("dirtied chunk %d kept its identity", i)
		}
	}
	for i := 3; i < 8; i++ {
		if m1[i].ID != m0[i].ID {
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
		if m2[i].ID != m1[i].ID {
			t.Fatalf("chunk %d re-dirtied out of sweep order", i)
		}
	}
	for i := 3; i < 5; i++ {
		if m2[i].ID == m1[i].ID {
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
	if manifestOf(a)[0].ID == manifestOf(b)[0].ID {
		t.Fatal("private chunks of different VMs share an identity")
	}
	// Clone is deep: advancing the clone leaves the original alone.
	c := a.Clone()
	c.advance(DeltaChunkBytes)
	if manifestOf(a)[1].ID != ma[1].ID {
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
	img, err := d.CaptureDeltaImage()
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
	for _, ref := range img.Pages.AppendManifest(nil) {
		total += ref.Bytes
	}
	if total != d.RAMBytes() {
		t.Fatalf("manifest covers %d bytes, want all of RAM", total)
	}
	// The capture folded the dirt: a MarkClean right after is a no-op on
	// the table, so an idle follow-up epoch dedups to zero new chunks.
	before := img.Pages.AppendManifest(nil)
	d.MarkClean()
	after := d.ensurePages().AppendManifest(nil)
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
	img, err := d.CaptureDeltaImage()
	if err != nil {
		t.Fatal(err)
	}
	lineage := img.Pages.Lineage
	d.Destroy()
	e.k.RunFor(5 * sim.Second)

	d2, err := e.hv(0).RestoreDomain(img, nil)
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
	img2, err := d2.CaptureDeltaImage()
	if err != nil {
		t.Fatal(err)
	}
	if img2.Pages.Lineage != lineage {
		t.Fatal("restore lost the page-table lineage")
	}
	m1, m2 := img.Pages.AppendManifest(nil), img2.Pages.AppendManifest(nil)
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
	img, err := d.CaptureDeltaImage()
	if err != nil {
		t.Fatal(err)
	}
	d.Destroy()
	d2, err := e.hv(0).RestoreDomain(img, nil)
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
