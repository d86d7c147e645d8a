package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/obs"
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
	app := func(int) mpi.App { return hpcc.NewHalo(30000, 20*sim.Millisecond, 1024) }

	type out struct {
		bytesWritten int64
		meanStore    sim.Time
		meanDown     sim.Time
		restoreStage sim.Time
		jobOK        bool
	}
	outs := sweep(opts, []bool{false, true}, 1, func(delta bool, _ int, _ *obs.Tracer) out {
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		lsc.Delta = delta
		b := newBed(opts.Seed, map[string]int{"alpha": nodes * 2}, lsc, true)
		vc := b.allocate("inc", nodes, guest.WatchdogConfig{})
		launch(vc, app)
		for _, d := range vc.Domains() {
			d.SetDirtyRate(dirtyRate)
		}
		b.Kernel.RunFor(sim.Second)

		o := out{}
		gens := b.epochs(vc, cycles, 10*sim.Second)
		for _, r := range gens {
			for _, img := range r.Images {
				o.bytesWritten += img.SizeBytes()
			}
			o.meanStore += r.StoreTime
			o.meanDown += r.Downtime
		}
		o.meanStore /= cycles
		o.meanDown /= cycles
		// Fail a node and recover from the newest generation.
		o.restoreStage, o.jobOK = b.failAndRecover(vc, gens[len(gens)-1].Generation, "alpha")
		return o
	})
	full, delta := outs[0][0], outs[1][0]

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
	wouts := sweep(opts, []bool{false, true}, 1, func(delta bool, _ int, _ *obs.Tracer) wout {
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		lsc.Delta = delta
		b := makeBed(opts.Seed+20, bedOptions{topo: wanTopo(nodes * 2), lsc: lsc, ntp: true})
		src := phys.ClusterName(0, 0)
		vc := b.allocateOn("wdlt", nodes, src)
		for _, d := range vc.Domains() {
			d.SetDirtyRate(dirtyRate)
		}
		b.Kernel.RunFor(35 * sim.Second)
		launch(vc, app)
		b.Kernel.RunFor(sim.Second)

		o := wout{}
		gens := b.epochs(vc, cycles, 5*sim.Second)
		for i, r := range gens {
			o.logical += r.LogicalBytes
			o.sent += r.SentBytes
			if i == 0 {
				o.firstEpoch = r.SentBytes
			} else {
				o.steadyEpoch += r.SentBytes
			}
		}
		o.steadyEpoch /= cycles - 1
		o.restoreStage, o.jobOK = b.failAndRecover(vc, gens[len(gens)-1].Generation, src)
		return o
	})
	wanFull, wanDelta := wouts[0][0], wouts[1][0]
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
