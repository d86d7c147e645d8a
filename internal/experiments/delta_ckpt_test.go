package experiments

import (
	"testing"

	"dvc/internal/core"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/phys"
	"dvc/internal/sim"
)

// TestDeltaCheckpointDefaultDirtyRate measures the incremental
// content-addressed checkpoint pipeline on the 2-datacenter WAN bed:
// bytes shipped per epoch under full-image vs delta policy at the default
// guest dirty rate, and the restore staging latency from a delta
// generation. Every figure is a pure simulation output, so the test pins
// them exactly at its seed. E14b sets its own 6 MB/s dirty rate, so this
// is the only check of the acceptance bar at the default rate:
// steady-state delta bytes/epoch at most 25% of the full-image baseline.
//
// Epoch 0 is pinned separately: the ~30 s boot at the default dirty
// rate saturates the page table, so the first delta epoch ships nearly
// the whole image and only the steady-state epochs show the win.
func TestDeltaCheckpointDefaultDirtyRate(t *testing.T) {
	const (
		seed   = 20070917
		nodes  = 4
		epochs = 6
	)

	type runOut struct {
		firstEpoch   int64
		steadyEpoch  int64
		logical      int64
		sent         int64
		restoreStage sim.Time
	}
	run := func(delta bool) runOut {
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		lsc.Delta = delta
		// Tight epochs: at the default 40 MB/s dirty rate the guests touch
		// ~2% of RAM per 100 ms, so the 2 s default schedule lead would
		// dominate the per-epoch dirty set. NTP skew is micro-seconds, so
		// a 500 ms lead still pauses every domain on time.
		lsc.ScheduleLead = 500 * sim.Millisecond
		bd := makeBed(seed, bedOptions{topo: wanTopo(nodes * 2), lsc: lsc, ntp: true})
		src := phys.ClusterName(0, 0)
		vc, err := bd.Manager.Allocate(core.VCSpec{Name: "bench", Nodes: nodes, VMRAM: vmRAM, Clusters: []string{src}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Default dirty rate: no SetDirtyRate call, per the acceptance bar.
		bd.Kernel.RunFor(35 * sim.Second)
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(30000, 20*sim.Millisecond, 1024) })
		bd.Kernel.RunFor(sim.Second)

		o := runOut{}
		var last *core.CheckpointResult
		for i := 0; i < epochs; i++ {
			r, _ := bd.Checkpoint(vc, 10*sim.Minute)
			if r == nil || !r.OK {
				t.Fatalf("epoch %d failed: %+v", i, r)
			}
			last = r
			epoch := r.SentBytes
			o.logical += r.LogicalBytes
			o.sent += epoch
			if i == 0 {
				o.firstEpoch = epoch
			} else {
				o.steadyEpoch += epoch
			}
			bd.Kernel.RunFor(500 * sim.Millisecond)
		}
		o.steadyEpoch /= epochs - 1

		vc.PhysicalNodes()[0].Fail()
		bd.Kernel.RunFor(2 * sim.Second)
		vc.Teardown()
		targets := bd.Site.UpNodes(src)[:nodes]
		rr, err := bd.Recover(vc, last.Generation, targets, 30*sim.Minute)
		if err != nil || !rr.OK {
			t.Fatalf("restore failed: %v %+v", err, rr)
		}
		o.restoreStage = rr.StageTime
		return o
	}

	full, delta := run(false), run(true)
	t.Logf("bytes/epoch: full %d, delta %d (first %d); dedup %.2fx; restore stage %v",
		full.steadyEpoch, delta.steadyEpoch, delta.firstEpoch,
		float64(delta.logical)/float64(delta.sent), delta.restoreStage)

	// The acceptance bar.
	if delta.steadyEpoch*4 > full.steadyEpoch {
		t.Fatalf("steady-state delta epoch %d bytes > 25%% of full epoch %d bytes", delta.steadyEpoch, full.steadyEpoch)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"full bytes/epoch", full.steadyEpoch, 1073741824},
		{"delta bytes/epoch", delta.steadyEpoch, 164046438},
		{"delta first-epoch bytes", delta.firstEpoch, 1073790976},
		{"delta restore stage (ns)", int64(delta.restoreStage), 5373709120},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, pinned %d", c.name, c.got, c.want)
		}
	}
}
