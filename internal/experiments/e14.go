package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/phys"
	"dvc/internal/sim"
)

func init() {
	register("E14", "Extension: delta checkpoints", runE14)
}

// runE14 extends the checkpoint-cost story (E4/E5) with delta epochs:
// each generation ships only the pages dirtied since the last save,
// cutting store traffic and save stalls, yet every epoch is a
// self-contained image, so a restore stages one image, as a full
// restore does.
func runE14(opts Options) *Result {
	res := &Result{}
	const (
		nodes     = 4
		cycles    = 6
		dirtyRate = 6e6
	)

	type out struct {
		bytesWritten int64
		meanStore    sim.Time
		meanDown     sim.Time
		restoreStage sim.Time
		jobOK        bool
	}
	run := func(seed int64, delta bool) out {
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		lsc.Delta = delta
		b := newBed(seed, map[string]int{"alpha": nodes * 2}, lsc, true)
		vc := b.allocate("inc", nodes, guest.WatchdogConfig{})
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(30000, 20*sim.Millisecond, 1024) })
		for _, d := range vc.Domains() {
			d.SetDirtyRate(dirtyRate)
		}
		b.Kernel.RunFor(sim.Second)

		o := out{}
		var gens []*core.CheckpointResult
		for i := 0; i < cycles; i++ {
			var r *core.CheckpointResult
			if err := b.Coord.Checkpoint(vc, func(cr *core.CheckpointResult) { r = cr }); err != nil {
				panic(err)
			}
			// Polled in 1 s steps on purpose: the epoch spacing, and so
			// this table, depends on where the wait stops.
			for r == nil {
				b.Kernel.RunFor(sim.Second)
			}
			if !r.OK {
				panic("E14 checkpoint failed: " + r.Reason)
			}
			gens = append(gens, r)
			for _, img := range r.Images {
				o.bytesWritten += img.SizeBytes()
			}
			o.meanStore += r.StoreTime
			o.meanDown += r.Downtime
			b.Kernel.RunFor(10 * sim.Second)
		}
		o.meanStore /= cycles
		o.meanDown /= cycles

		// Fail a node and recover from the newest generation.
		vc.PhysicalNodes()[0].Fail()
		b.Kernel.RunFor(2 * sim.Second)
		vc.Teardown()
		targets := b.Site.UpNodes("alpha")[:nodes]
		rr, err := b.Recover(vc, gens[len(gens)-1].Generation, targets, 30*sim.Minute)
		if err != nil || !rr.OK {
			panic("E14 restore failed")
		}
		o.restoreStage = rr.StageTime
		o.jobOK = b.RunUntilJobDone(vc, 2*sim.Hour).AllOK()
		return o
	}

	full := run(opts.Seed, false)
	delta := run(opts.Seed, true)

	tbl := metrics.NewTable(fmt.Sprintf("E14: %d checkpoint cycles of a %d-VM cluster (%d MiB guests, %.0f MB/s dirty)",
		cycles, nodes, vmRAM>>20, dirtyRate/1e6),
		"policy", "store traffic", "store/ckpt", "downtime/ckpt", "restore stage", "job")
	tbl.Row("full every time", fmtBytes(full.bytesWritten), full.meanStore, full.meanDown, full.restoreStage, okStr(full.jobOK))
	tbl.Row("delta epochs", fmtBytes(delta.bytesWritten), delta.meanStore, delta.meanDown, delta.restoreStage, okStr(delta.jobOK))
	res.table(tbl, opts.out())

	res.check("all policies recover the job", full.jobOK && delta.jobOK, "")
	res.check("delta slashes store traffic",
		delta.bytesWritten*2 < full.bytesWritten,
		"%s vs %s", fmtBytes(delta.bytesWritten), fmtBytes(full.bytesWritten))
	res.check("delta shrinks per-checkpoint downtime",
		delta.meanDown < full.meanDown,
		"%v vs %v", delta.meanDown, full.meanDown)
	res.check("delta restore stages like a full restore",
		delta.restoreStage < full.restoreStage*2,
		"%v vs full's %v", delta.restoreStage, full.restoreStage)

	// E14b: the same two policies on a 2-datacenter WAN. The store's
	// chunk pool dedups template, zero, and unchanged private chunks
	// across epochs and VMs, so the wire carries only new chunks plus
	// manifest metadata, and restore stages a single image.
	type wout struct {
		firstEpoch   int64 // bytes shipped for epoch 0 (cold pool)
		steadyEpoch  int64 // mean bytes/epoch over epochs 1..n-1
		logical      int64 // logical image bytes across all epochs
		sent         int64 // bytes actually shipped across all epochs
		restoreStage sim.Time
		jobOK        bool
	}
	runWAN := func(seed int64, delta bool) wout {
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		lsc.Delta = delta
		b := makeBed(seed, bedOptions{topo: wanTopo(nodes * 2), lsc: lsc, ntp: true})
		src := phys.ClusterName(0, 0)
		vc, err := b.Manager.Allocate(core.VCSpec{Name: "wdlt", Nodes: nodes, VMRAM: vmRAM, Clusters: []string{src}}, nil)
		if err != nil {
			panic(err)
		}
		for _, d := range vc.Domains() {
			d.SetDirtyRate(dirtyRate)
		}
		b.Kernel.RunFor(35 * sim.Second)
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(30000, 20*sim.Millisecond, 1024) })
		b.Kernel.RunFor(sim.Second)

		o := wout{}
		var gens []*core.CheckpointResult
		for i := 0; i < cycles; i++ {
			var r *core.CheckpointResult
			if err := b.Coord.Checkpoint(vc, func(cr *core.CheckpointResult) { r = cr }); err != nil {
				panic(err)
			}
			// Polled in 1 s steps on purpose: the epoch spacing, and so
			// this table, depends on where the wait stops.
			for r == nil {
				b.Kernel.RunFor(sim.Second)
			}
			if !r.OK {
				panic("E14b checkpoint failed: " + r.Reason)
			}
			gens = append(gens, r)
			epoch := r.SentBytes
			o.logical += r.LogicalBytes
			o.sent += epoch
			if i == 0 {
				o.firstEpoch = epoch
			} else {
				o.steadyEpoch += epoch
			}
			b.Kernel.RunFor(5 * sim.Second)
		}
		o.steadyEpoch /= cycles - 1

		vc.PhysicalNodes()[0].Fail()
		b.Kernel.RunFor(2 * sim.Second)
		vc.Teardown()
		targets := b.Site.UpNodes(src)[:nodes]
		rr, err := b.Recover(vc, gens[len(gens)-1].Generation, targets, 30*sim.Minute)
		if err != nil || !rr.OK {
			panic("E14b restore failed")
		}
		o.restoreStage = rr.StageTime
		o.jobOK = b.RunUntilJobDone(vc, 2*sim.Hour).AllOK()
		return o
	}

	wanFull := runWAN(opts.Seed+20, false)
	wanDelta := runWAN(opts.Seed+20, true)
	dedup := float64(wanDelta.logical) / float64(wanDelta.sent)

	wtbl := metrics.NewTable(fmt.Sprintf("E14b: %d content-addressed delta epochs of a %d-VM cluster on a 2-DC WAN",
		cycles, nodes),
		"policy", "epoch 0", "bytes/epoch (steady)", "total shipped", "dedup ratio", "restore stage", "job")
	wtbl.Row("full image every epoch", fmtBytes(wanFull.firstEpoch), fmtBytes(wanFull.steadyEpoch),
		fmtBytes(wanFull.sent), "1.0x", wanFull.restoreStage, okStr(wanFull.jobOK))
	wtbl.Row("delta epochs", fmtBytes(wanDelta.firstEpoch), fmtBytes(wanDelta.steadyEpoch),
		fmtBytes(wanDelta.sent), fmt.Sprintf("%.1fx", dedup), wanDelta.restoreStage, okStr(wanDelta.jobOK))
	res.table(wtbl, opts.out())

	res.check("both WAN policies recover the job", wanFull.jobOK && wanDelta.jobOK, "")
	res.check("steady-state delta epoch ships <= 25% of a full epoch",
		wanDelta.steadyEpoch*4 <= wanFull.steadyEpoch,
		"%s vs %s", fmtBytes(wanDelta.steadyEpoch), fmtBytes(wanFull.steadyEpoch))
	res.check("chunk pool dedups across epochs and VMs",
		dedup > 2,
		"ratio %.1fx", dedup)
	res.check("delta restore stages one image, not a chain",
		wanDelta.restoreStage < wanFull.restoreStage*2,
		"%v vs full's %v", wanDelta.restoreStage, wanFull.restoreStage)
	return res
}

func okStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAILED"
}
