package vm

import (
	"testing"

	"dvc/internal/payload"
	"dvc/internal/sim"
)

// FuzzRestoreDomain feeds hostile image metadata to RestoreDomain: the
// image's RAM, a page table covering tableRAM bytes (none when tableRAM
// is negative) with the given cursor, a guest payload and a checksum
// that matches it unless badSum. Restore must return an error or a
// Paused domain; a restored domain must survive Unpause, up to a second
// of running, Pause and Capture(true); and the node's FreeRAM must never
// exceed its RAM less Dom0Reserve. The committed corpus
// (testdata/fuzz/FuzzRestoreDomain) holds a real image of a computing
// guest (real-image), the same image with RAM -1 and no table
// (negative-ram), with no table (nil-table), with a table covering half
// its RAM (table-ram-mismatch) and with a bad checksum (bad-checksum).
// Run:
//
//	go test -run '^$' -fuzz FuzzRestoreDomain -fuzztime 10s ./internal/vm
func FuzzRestoreDomain(f *testing.F) {
	f.Fuzz(func(t *testing.T, ram, tableRAM, cursor int64, data []byte, badSum bool) {
		e := newEnv(t, 1)
		h := e.hv(0)
		rope := payload.Wrap(data)
		img := &Image{DomainName: "vm0", Addr: "vm0", RAMBytes: ram, Data: rope, Checksum: imageChecksum(rope)}
		if badSum {
			img.Checksum ^= 1
		}
		if tableRAM >= 0 {
			// A boot table of at most 8 GiB, then stretched to claim
			// tableRAM, so a huge claim cannot allocate a huge table.
			img.Pages = newPageTable("vm0", min(tableRAM, 8<<30), 0)
			img.Pages.RAM = tableRAM
			img.Pages.Cursor = cursor
		}
		limit := h.node.Spec().RAMBytes - h.cfg.Dom0Reserve
		checkRAM := func(when string) {
			if free := h.FreeRAM(); free > limit {
				t.Fatalf("%s: FreeRAM %d exceeds the %d bytes the node can host", when, free, limit)
			}
		}
		d, err := h.RestoreDomain(img)
		checkRAM("after restore")
		if err != nil {
			return
		}
		if d.State() != StatePaused {
			t.Fatalf("restored domain is %v, want Paused", d.State())
		}
		if err := d.Unpause(); err != nil {
			t.Fatal(err)
		}
		// Run for up to a simulated second, bounded in events: a hostile
		// image may hold a program that loops without advancing time.
		for end, n := e.k.Now()+sim.Second, 0; n < 10000 && e.k.Now() < end && e.k.Step(); n++ {
		}
		if err := d.Pause(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Capture(true); err != nil {
			t.Fatal(err)
		}
		checkRAM("after capture")
	})
}
