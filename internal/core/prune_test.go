package core

import (
	"testing"

	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

// takeGens drives n checkpoint-and-continue generations.
func takeGens(t *testing.T, tb *testbed, vc *VirtualCluster, n int) []*CheckpointResult {
	t.Helper()
	var out []*CheckpointResult
	for i := 0; i < n; i++ {
		var res *CheckpointResult
		if err := tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r }); err != nil {
			t.Fatal(err)
		}
		for res == nil {
			tb.k.RunFor(sim.Second)
		}
		if !res.OK {
			t.Fatalf("gen %d failed: %s", i, res.Reason)
		}
		out = append(out, res)
		tb.k.RunFor(3 * sim.Second)
	}
	return out
}

func newPruneBed(t *testing.T) (*testbed, *VirtualCluster) {
	t.Helper()
	cfg := DefaultNTPLSC()
	cfg.ContinueAfterSave = true
	tb := newTestbed(t, 31, map[string]int{"alpha": 4}, cfg)
	vc := tb.allocate(t, "pr", 2, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(20000, 20*sim.Millisecond, 512) })
	for _, d := range vc.Domains() {
		d.SetDirtyRate(2e6)
	}
	tb.k.RunFor(sim.Second)
	return tb, vc
}

func TestGenerationsListing(t *testing.T) {
	tb, vc := newPruneBed(t)
	takeGens(t, tb, vc, 3)
	gens := tb.co.Generations("pr")
	if len(gens) != 3 || gens[0] != 0 || gens[2] != 2 {
		t.Fatalf("Generations = %v", gens)
	}
	if got := tb.co.Generations("nope"); len(got) != 0 {
		t.Fatalf("unknown VC has generations %v", got)
	}
}

func TestPruneKeepsNewestFullGenerations(t *testing.T) {
	tb, vc := newPruneBed(t)
	takeGens(t, tb, vc, 4)
	deleted := tb.co.PruneGenerations("pr", 2)
	if deleted != 4 { // 2 old generations x 2 domains
		t.Fatalf("deleted %d objects, want 4", deleted)
	}
	gens := tb.co.Generations("pr")
	if len(gens) != 2 || gens[0] != 2 || gens[1] != 3 {
		t.Fatalf("kept %v, want [2 3]", gens)
	}
	// Pruning again is a no-op.
	if tb.co.PruneGenerations("pr", 2) != 0 {
		t.Fatal("second prune deleted more")
	}
	// The kept generations still restore.
	vc.PhysicalNodes()[0].Fail()
	tb.k.RunFor(2 * sim.Second)
	vc.Teardown()
	var rr *RestoreResult
	tb.co.RestoreVC(vc, 3, tb.site.UpNodes("alpha")[:2], func(r *RestoreResult) { rr = r })
	tb.k.RunFor(5 * sim.Minute)
	if rr == nil || !rr.OK {
		t.Fatalf("restore after prune: %+v", rr)
	}
	if !tb.runJob(t, vc, time60()).AllOK() {
		t.Fatal("job failed after pruned restore")
	}
}
