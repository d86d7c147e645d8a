package core

import (
	"reflect"
	"strings"
	"testing"

	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/sim"
	"dvc/internal/vm"
)

// TestDeltaCheckpointEpochsDedupAndRestore drives the full delta path:
// coordinated delta epochs, steady-state epochs costing a fraction of
// the full image, prune + GC of old self-contained generations, and
// crash recovery staging exactly one image per domain.
func TestDeltaCheckpointEpochsDedupAndRestore(t *testing.T) {
	cfg := DefaultNTPLSC()
	cfg.ContinueAfterSave = true
	cfg.Delta = true
	tb := newTestbed(t, 25, map[string]int{"alpha": 4}, cfg)
	vc, err := tb.mgr.Allocate(VCSpec{Name: "dlt", Nodes: 2, VMRAM: testVMRAM}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range vc.Domains() {
		d.SetDirtyRate(2e6) // modest writer from first guest instruction
	}
	tb.k.RunFor(vm.DefaultXenConfig().BootTime + sim.Second)
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(6000, 20*sim.Millisecond, 1024) })
	tb.k.RunFor(sim.Second)

	var gens []*CheckpointResult
	for i := 0; i < 3; i++ {
		var res *CheckpointResult
		tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
		for res == nil {
			tb.k.RunFor(sim.Second)
		}
		tb.k.RunFor(5 * sim.Second)
		if !res.OK {
			t.Fatalf("delta checkpoint %d: %+v", i, res)
		}
		gens = append(gens, res)
	}

	logical := int64(vc.Spec().Nodes) * testVMRAM
	for i, g := range gens {
		if g.LogicalBytes != logical {
			t.Fatalf("gen %d logical %d, want %d", i, g.LogicalBytes, logical)
		}
		for _, img := range g.Images {
			if img.Pages == nil {
				t.Fatalf("gen %d image is not a delta epoch", i)
			}
		}
	}
	// Generation 0 already dedups: the golden-image template chunks are
	// shared across both VMs, and untouched RAM is one zero chunk.
	if gens[0].SentBytes >= gens[0].LogicalBytes {
		t.Fatalf("gen 0 sent %d of %d logical — no dedup", gens[0].SentBytes, gens[0].LogicalBytes)
	}
	if gens[0].DedupChunks == 0 {
		t.Fatal("gen 0 saw no dedup hits")
	}
	// Steady state: an epoch costs its dirtied chunks plus metadata —
	// far below the full image, and far below generation 0.
	for _, g := range gens[1:] {
		if g.SentBytes*4 > g.LogicalBytes {
			t.Fatalf("steady-state epoch sent %d of %d logical, want <= 25%%", g.SentBytes, g.LogicalBytes)
		}
	}
	if gens[1].SentBytes >= gens[0].SentBytes {
		t.Fatalf("gen 1 sent %d, not below gen 0's %d", gens[1].SentBytes, gens[0].SentBytes)
	}
	if tb.store.DeltaWrites != 6 {
		t.Fatalf("store delta writes %d, want 6", tb.store.DeltaWrites)
	}

	// Old delta generations are self-contained, so pruning drops them
	// whole and GC reclaims their private chunks.
	uniqueBefore := tb.store.UniqueBytes()
	if deleted := tb.co.PruneGenerations("dlt", 1); deleted != 4 {
		t.Fatalf("pruned %d objects, want 4 (2 gens x 2 domains)", deleted)
	}
	if tb.store.UniqueBytes() >= uniqueBefore {
		t.Fatalf("prune+GC did not shrink the pool: %d -> %d", uniqueBefore, tb.store.UniqueBytes())
	}

	// Crash recovery from the kept generation: a delta restore stages
	// exactly one self-contained image per domain.
	vc.PhysicalNodes()[0].Fail()
	tb.k.RunFor(2 * sim.Second)
	vc.Teardown()
	targets := tb.site.UpNodes("alpha")[:2]
	var rr *RestoreResult
	readsBefore := tb.store.Reads
	tb.co.RestoreVC(vc, gens[2].Generation, targets, func(r *RestoreResult) { rr = r })
	tb.k.RunFor(5 * sim.Minute)
	if rr == nil || !rr.OK {
		t.Fatalf("delta restore: %+v", rr)
	}
	if got, want := tb.store.Reads-readsBefore, uint64(vc.Spec().Nodes); got != want {
		t.Fatalf("delta restore issued %d store reads, want %d (one per domain)", got, want)
	}
	js := tb.runJob(t, vc, time60())
	if !js.AllOK() {
		t.Fatalf("job after delta restore: %+v", js)
	}
}

// TestDeltaRestoreByteIdenticalToFull is the acceptance proof: a delta
// image written to the store and read back is byte-identical — same
// payload bytes, same decoded guest state — to a full image captured at
// the same paused instant, and it restores to a running domain.
func TestDeltaRestoreByteIdenticalToFull(t *testing.T) {
	tb := newTestbed(t, 26, map[string]int{"alpha": 2}, DefaultNTPLSC())
	vc := tb.allocate(t, "bi", 1, guest.WatchdogConfig{})
	tb.k.RunFor(10 * sim.Second)
	d := vc.Domains()[0]
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	full, err := d.Capture(false)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := d.Capture(true)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Data.Equal(full.Data) {
		t.Fatal("delta capture's functional payload differs from the full capture")
	}

	if _, err := tb.store.Write("bi/0", delta, nil); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(sim.Minute)
	var got *vm.Image
	var gotErr error
	tb.store.Read("bi/0", func(i *vm.Image, err error) { got, gotErr = i, err })
	tb.k.RunFor(sim.Minute)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if !got.Data.Equal(full.Data) {
		t.Fatal("read-back delta image is not byte-identical to the full image")
	}
	sf, err := guest.DecodeImagePayload(full.Data)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := guest.DecodeImagePayload(got.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sf, sg) {
		t.Fatal("decoded guest state differs between delta and full restore")
	}

	// And it restores to a live domain.
	d.Destroy()
	tb.k.RunFor(sim.Second)
	h := tb.mgr.hvs[vc.PhysicalNodes()[0].ID()]
	d2, err := h.RestoreDomain(got)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Unpause(); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(sim.Second)
	if d2.State() != vm.StateRunning {
		t.Fatalf("restored domain is %v", d2.State())
	}
}

// TestLiveMigrateDeltaSkipsUntouchedRAM: the WAN-ready variant elides
// never-dirtied chunks from the first pre-copy round and keeps chunk
// lineage across the move.
func TestLiveMigrateDeltaSkipsUntouchedRAM(t *testing.T) {
	lsc := DefaultNTPLSC()
	lsc.Delta = true
	tb := newTestbed(t, 27, map[string]int{"alpha": 2, "beta": 2}, lsc)
	vc, err := tb.mgr.Allocate(VCSpec{Name: "wan", Nodes: 2, VMRAM: testVMRAM, Clusters: []string{"alpha"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range vc.Domains() {
		d.SetDirtyRate(2e6) // calm guest: most RAM never dirtied
	}
	tb.k.RunFor(vm.DefaultXenConfig().BootTime + sim.Second)
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(4000, 20*sim.Millisecond, 1024) })
	tb.k.RunFor(sim.Second)

	var res *LiveMigrationResult
	if err := tb.co.LiveMigrate(vc, tb.site.UpNodes("beta"), func(r *LiveMigrationResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(10 * sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("delta live migration: %+v", res)
	}
	total := int64(vc.Spec().Nodes) * testVMRAM
	if res.BytesSkipped == 0 {
		t.Fatal("delta pre-copy skipped nothing on a calm guest")
	}
	if res.BytesCopied+res.BytesSkipped < total {
		t.Fatalf("copied %d + skipped %d < RAM %d", res.BytesCopied, res.BytesSkipped, total)
	}
	if res.BytesCopied >= total {
		t.Fatalf("copied %d bytes, no elision vs %d RAM", res.BytesCopied, total)
	}
	// The migrated domains carry their page tables (delta final capture):
	// a post-move epoch dedups against pre-move state.
	for _, d := range vc.Domains() {
		if d.UntouchedBytes() == testVMRAM {
			t.Fatal("migrated domain lost its page-table state")
		}
	}
	js := tb.runJob(t, vc, time60())
	if !js.AllOK() {
		t.Fatalf("job after delta live migration: %+v", js)
	}
}

// TestFullCycleKeepsPageTable: a full-image save/restore cycle hands the
// page table across like a delta one, so a later delta live migration
// knows every chunk was written. A 4 x 256 MiB VC at the default dirty
// rate dirties all of RAM in 30 s; a full checkpoint then must not
// reset the restored tables to boot state, or the migration would skip
// nearly all of RAM as "never written".
func TestFullCycleKeepsPageTable(t *testing.T) {
	tb := newTestbed(t, 31, map[string]int{"alpha": 4, "beta": 4}, DefaultNTPLSC())
	vc, err := tb.mgr.Allocate(VCSpec{Name: "cyc", Nodes: 4, VMRAM: testVMRAM, Clusters: []string{"alpha"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(vm.DefaultXenConfig().BootTime + 30*sim.Second)
	var res *CheckpointResult
	tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
	for res == nil {
		tb.k.RunFor(sim.Second)
	}
	if !res.OK {
		t.Fatalf("full checkpoint: %+v", res)
	}
	for _, img := range res.Images {
		if img.Delta || img.Pages == nil {
			t.Fatalf("full capture of %s: delta=%v pages=%v", img.DomainName, img.Delta, img.Pages != nil)
		}
	}
	if want := int64(vc.Spec().Nodes) * testVMRAM; res.LogicalBytes != want || res.SentBytes != want {
		t.Fatalf("full epoch logical %d sent %d, want %d each", res.LogicalBytes, res.SentBytes, want)
	}

	// A delta coordinator over the same manager migrates the VC.
	lsc := DefaultNTPLSC()
	lsc.Delta = true
	var lm *LiveMigrationResult
	if err := NewCoordinator(tb.mgr, lsc).LiveMigrate(vc, tb.site.UpNodes("beta"), func(r *LiveMigrationResult) { lm = r }); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(10 * sim.Minute)
	if lm == nil || !lm.OK {
		t.Fatalf("delta live migration: %+v", lm)
	}
	if lm.BytesSkipped != 0 {
		t.Fatalf("migration skipped %d bytes as never written; every chunk was dirtied before the full checkpoint", lm.BytesSkipped)
	}
}

// unregisteredApp is an MPI app whose type was never passed to
// imgcodec.Register, so no image of a guest running it can be encoded.
type unregisteredApp struct{ *hpcc.Halo }

// TestFailedStoreWriteReleasesVC: when the store rejects an image of the
// save set, the coordinator resumes the paused domains and hands the VC
// back Ready, as for a failed capture. A 0-byte domain's delta page table
// covers no memory, which the store's write path rejects.
func TestFailedStoreWriteReleasesVC(t *testing.T) {
	cfg := DefaultNTPLSC()
	cfg.ContinueAfterSave = true
	cfg.Delta = true
	tb := newTestbed(t, 5, map[string]int{"alpha": 2}, cfg)
	vc, err := tb.mgr.Allocate(VCSpec{Name: "empty", Nodes: 2, VMRAM: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(vm.DefaultXenConfig().BootTime + sim.Second)
	var res *CheckpointResult
	tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
	for res == nil {
		tb.k.RunFor(sim.Second)
	}
	if res.OK || !strings.Contains(res.Reason, "page table covers 0 bytes") {
		t.Fatalf("checkpoint of 0-byte domains: %+v", res)
	}
	tb.k.RunFor(sim.Minute)
	if vc.State() != VCReady {
		t.Fatalf("VC %v after the failed store write, want Ready", vc.State())
	}
	for _, d := range vc.Domains() {
		if d.State() != vm.StateRunning {
			t.Fatalf("domain %s %v after the failed store write, want Running", d.Name(), d.State())
		}
	}
}

// TestFailedCutReleasesVC: a cut holds every domain of the VC or fails.
// Each way of taking one (an LSC checkpoint that continues or cycles, an
// LSC migration, a live migration's stop) runs here under the naive
// coordinator, whose serial dispatch leaves a window in which vm00 has
// paused and its siblings still run. Crashing vm00's host in that window,
// running a guest no image can encode, or crashing a live migration's
// target during pre-copy must fail the round, store no key, and hand the
// VC back Ready with every surviving domain running.
func TestFailedCutReleasesVC(t *testing.T) {
	type op func(tb *testbed, vc *VirtualCluster, done func(ok bool, reason string)) error
	checkpoint := func(tb *testbed, vc *VirtualCluster, done func(bool, string)) error {
		return tb.co.Checkpoint(vc, func(r *CheckpointResult) { done(r.OK, r.Reason) })
	}
	migrate := func(tb *testbed, vc *VirtualCluster, done func(bool, string)) error {
		return tb.co.Migrate(vc, tb.site.UpNodes("beta"), func(r *CheckpointResult) { done(r.OK, r.Reason) })
	}
	live := func(tb *testbed, vc *VirtualCluster, done func(bool, string)) error {
		return tb.co.LiveMigrate(vc, tb.site.UpNodes("beta"), func(r *LiveMigrationResult) { done(r.OK, r.Reason) })
	}
	const (
		crashSource = iota // crash vm00's host once vm00 has paused
		crashTarget        // crash a target's host once pre-copy has started
		unencodable        // run a guest no image can encode
	)
	const crashed = "cut-vm00: domain is Destroyed"
	for _, row := range []struct {
		name  string
		cont  bool
		fault int
		op    op
		want  string
	}{
		{"checkpoint-continue/crash", true, crashSource, checkpoint, crashed},
		{"checkpoint-cycle/crash", false, crashSource, checkpoint, crashed},
		{"migrate/crash", false, crashSource, migrate, crashed},
		{"live-migrate/crash", false, crashSource, live, crashed},
		{"live-migrate/target-down", false, crashTarget, live, "node beta-n00 is down"},
		{"checkpoint/unencodable", true, unencodable, checkpoint, "is not registered"},
		{"live-migrate/unencodable", false, unencodable, live, "is not registered"},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := DefaultNaiveLSC()
			cfg.ContinueAfterSave = row.cont
			tb := newTestbed(t, 5, map[string]int{"alpha": 4, "beta": 4}, cfg)
			vc := tb.allocate(t, "cut", 4, guest.WatchdogConfig{})
			vc.LaunchMPI(6000, func(int) mpi.App {
				halo := hpcc.NewHalo(6000, 20*sim.Millisecond, 1024)
				if row.fault == unencodable {
					return unregisteredApp{halo}
				}
				return halo
			})
			tb.k.RunFor(sim.Second)
			var ok, reported bool
			var reason string
			if err := row.op(tb, vc, func(o bool, r string) { ok, reported, reason = o, true, r }); err != nil {
				t.Fatal(err)
			}
			switch row.fault {
			case crashTarget:
				tb.site.UpNodes("beta")[0].Fail()
			case crashSource:
				doms := vc.Domains()
				for doms[0].State() == vm.StateRunning {
					tb.k.RunFor(sim.Millisecond)
				}
				for _, d := range doms[1:] {
					if d.State() != vm.StateRunning {
						t.Fatalf("domain %s %v when vm00 paused, want Running", d.Name(), d.State())
					}
				}
				vc.PhysicalNodes()[0].Fail()
			}
			for !reported {
				tb.k.RunFor(sim.Second)
			}
			if ok || !strings.Contains(reason, row.want) {
				t.Fatalf("ok=%v reason %q, want a failure naming %q", ok, reason, row.want)
			}
			if keys := tb.store.Keys(""); len(keys) != 0 {
				t.Fatalf("the failed cut stored %v", keys)
			}
			tb.k.RunFor(sim.Minute)
			if vc.State() != VCReady {
				t.Fatalf("VC %v after the failed cut, want Ready", vc.State())
			}
			for i, d := range vc.Domains() {
				if i == 0 && row.fault == crashSource {
					continue
				}
				if d.State() != vm.StateRunning {
					t.Fatalf("domain %s %v after the failed cut, want Running", d.Name(), d.State())
				}
			}
		})
	}
}
