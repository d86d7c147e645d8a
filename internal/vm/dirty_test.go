package vm

import (
	"testing"

	"dvc/internal/guest"
	"dvc/internal/sim"
)

func bootedDomain(t *testing.T) (*env, *Domain) {
	t.Helper()
	e := newEnv(t, 1)
	var d *Domain
	e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) {
		d = dom
		dom.OS().Spawn(&workerProg{Rounds: 1 << 20, Dur: 100 * sim.Millisecond})
	})
	e.k.RunFor(DefaultXenConfig().BootTime + sim.Second)
	return e, d
}

func TestDirtyBytesGrowWithActiveTime(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(10e6)
	mark := d.MarkClean()
	e.k.RunFor(10 * sim.Second)
	got := d.DirtyBytesSince(mark)
	if got != 100_000_000 {
		t.Fatalf("10s at 10MB/s dirtied %d bytes", got)
	}
}

func TestDirtySaturatesAtRAM(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(1e9)
	mark := d.MarkClean()
	e.k.RunFor(10 * sim.Second) // 10 GB > 1 GiB RAM
	if got := d.DirtyBytesSince(mark); got != 1<<30 {
		t.Fatalf("dirty bytes %d, want saturation at RAM", got)
	}
}

func TestPausedGuestDirtiesNothing(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(10e6)
	mark := d.MarkClean()
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	e.k.RunFor(time100())
	if got := d.DirtyBytesSince(mark); got != 0 {
		t.Fatalf("paused guest dirtied %d bytes", got)
	}
}

func time100() sim.Time { return 100 * sim.Second }

// TestIncrementalImageSize: a delta image's modelled size is only the
// dirtied pages plus page-table metadata, while a full image of the same
// domain is the whole RAM.
func TestIncrementalImageSize(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(10e6)
	d.MarkClean()
	e.k.RunFor(5 * sim.Second) // 50 MB dirty
	d.Pause()
	img, err := d.Capture(true)
	if err != nil {
		t.Fatal(err)
	}
	if img.Pages == nil {
		t.Fatal("delta image carries no page table")
	}
	meta := int64(1<<30) / 512
	if img.SizeBytes() != 50_000_000+meta {
		t.Fatalf("delta size %d, want 50MB+%d meta", img.SizeBytes(), meta)
	}
	// The functional payload is still the complete guest.
	if _, err := guest.DecodeImagePayload(img.Data); err != nil {
		t.Fatalf("delta image not self-contained: %v", err)
	}
	// A full image of the same domain is the whole RAM.
	full, err := d.Capture(false)
	if err != nil {
		t.Fatal(err)
	}
	if full.SizeBytes() != 1<<30 {
		t.Fatalf("full size %d", full.SizeBytes())
	}
	if full.Pages == nil {
		t.Fatal("full image carries no page table")
	}
	if img.SizeBytes() >= full.SizeBytes() {
		t.Fatal("delta image not smaller than full")
	}
}

func TestMarkCleanResetsDirtyAccounting(t *testing.T) {
	e, d := bootedDomain(t)
	d.SetDirtyRate(10e6)
	d.MarkClean()
	e.k.RunFor(5 * sim.Second)
	mark2 := d.MarkClean()
	e.k.RunFor(2 * sim.Second)
	if got := d.DirtyBytesSince(mark2); got != 20_000_000 {
		t.Fatalf("after re-mark: %d bytes, want 20MB", got)
	}
}

func TestDefaultDirtyRateApplies(t *testing.T) {
	e, d := bootedDomain(t)
	mark := d.MarkClean()
	e.k.RunFor(sim.Second)
	want := int64(DefaultDirtyRate)
	if got := d.DirtyBytesSince(mark); got != want {
		t.Fatalf("default rate gave %d, want %d", got, want)
	}
}
