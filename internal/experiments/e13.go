package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/phys"
	"dvc/internal/sim"
)

func init() {
	register("E13", "Extension: pre-copy live migration vs LSC stop-and-copy", runE13)
}

// runE13 extends §4's migration work item with pre-copy live migration:
// the bulk of guest memory moves while the cluster keeps computing, so
// downtime shrinks from RAM/bandwidth to residual/bandwidth — until the
// guests dirty memory faster than the wire drains it, where pre-copy
// degenerates toward stop-and-copy with extra traffic.
func runE13(opts Options) *Result {
	res := &Result{}
	const nodes = 4

	type out struct {
		down   sim.Time
		total  sim.Time
		rounds int
		copied int64
		ok     bool
	}
	run := func(seed int64, dirtyRate float64, live bool) out {
		b := newBed(seed, map[string]int{"alpha": nodes, "beta": nodes}, coreNTP(), true)
		vc, err := b.Manager.Allocate(core.VCSpec{Name: "m", Nodes: nodes, VMRAM: vmRAM, Clusters: []string{"alpha"}}, nil)
		if err != nil {
			panic(err)
		}
		b.Kernel.RunFor(30 * sim.Second)
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(1<<20, 20*sim.Millisecond, 1024) })
		b.Kernel.RunFor(sim.Second)
		for _, d := range vc.Domains() {
			d.SetDirtyRate(dirtyRate)
		}
		targets := b.Site.UpNodes("beta")
		o := out{}
		if live {
			r, err := b.LiveMigrate(vc, targets, 30*sim.Minute)
			if err == nil && r.OK {
				o = out{down: r.Downtime, total: r.TotalTime, rounds: r.Rounds, copied: r.BytesCopied, ok: true}
			}
		} else {
			start := b.Kernel.Now()
			r, err := b.Migrate(vc, targets, 30*sim.Minute)
			if err == nil && r.OK {
				copied := int64(0)
				for _, img := range r.Images {
					copied += 2 * img.SizeBytes() // store write + read
				}
				o = out{down: r.Downtime, total: r.FinishedAt - start, rounds: 1, copied: copied, ok: true}
			}
		}
		// The guests must survive either way.
		if o.ok {
			for _, node := range vc.PhysicalNodes() {
				if node.Cluster() != "beta" {
					o.ok = false
				}
			}
		}
		return o
	}

	tbl := metrics.NewTable(fmt.Sprintf("E13: migrating a running %d-VM cluster (%d MiB guests)", nodes, vmRAM>>20),
		"guest dirty rate", "method", "downtime", "total", "rounds", "bytes moved")
	outs := map[string]out{}
	for i, rate := range []float64{5e6, 40e6, 100e6} {
		stop := run(opts.Seed+int64(i), rate, false)
		live := run(opts.Seed+int64(i), rate, true)
		key := fmt.Sprintf("%.0f", rate/1e6)
		outs["stop"+key] = stop
		outs["live"+key] = live
		label := fmt.Sprintf("%.0f MB/s", rate/1e6)
		tbl.Row(label, "stop-and-copy", stop.down, stop.total, stop.rounds, fmtBytes(stop.copied))
		tbl.Row(label, "pre-copy live", live.down, live.total, live.rounds, fmtBytes(live.copied))
	}
	res.table(tbl, opts.out())

	res.check("all migrations complete",
		outs["stop5"].ok && outs["live5"].ok && outs["stop100"].ok && outs["live100"].ok, "")
	res.check("pre-copy slashes downtime for calm guests",
		outs["live5"].down*5 < outs["stop5"].down,
		"live %v vs stop %v", outs["live5"].down, outs["stop5"].down)
	res.check("hot guests erode the pre-copy win",
		outs["live100"].down > outs["live5"].down,
		"100MB/s: %v vs 5MB/s: %v", outs["live100"].down, outs["live5"].down)
	res.check("pre-copy pays with extra traffic on hot guests",
		outs["live100"].copied > outs["stop100"].copied/2+int64(nodes)*vmRAM,
		"live moved %s vs stop %s", fmtBytes(outs["live100"].copied), fmtBytes(outs["stop100"].copied))

	// WAN section: the same migration crossing datacenters over the
	// 100 MB/s WAN, where every elided byte matters. The delta variant
	// folds the page table before the first round and skips chunks
	// nobody ever dirtied (golden-image template, zeroed RAM).
	type wanOut struct {
		down    sim.Time
		copied  int64
		skipped int64
		ok      bool
	}
	runWAN := func(seed int64, dirtyRate float64, live, delta bool) wanOut {
		lsc := coreNTP()
		lsc.Delta = delta
		b := makeBed(seed, bedOptions{topo: wanTopo(nodes), lsc: lsc, ntp: true})
		src, dst := phys.ClusterName(0, 0), phys.ClusterName(1, 0)
		vc, err := b.Manager.Allocate(core.VCSpec{Name: "wm", Nodes: nodes, VMRAM: vmRAM, Clusters: []string{src}}, nil)
		if err != nil {
			panic(err)
		}
		for _, d := range vc.Domains() {
			d.SetDirtyRate(dirtyRate)
		}
		b.Kernel.RunFor(30 * sim.Second)
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(1<<20, 20*sim.Millisecond, 1024) })
		b.Kernel.RunFor(sim.Second)
		targets := b.Site.UpNodes(dst)
		o := wanOut{}
		if live {
			r, err := b.LiveMigrate(vc, targets, 60*sim.Minute)
			if err == nil && r.OK {
				o = wanOut{down: r.Downtime, copied: r.BytesCopied, skipped: r.BytesSkipped, ok: true}
			}
		} else {
			r, err := b.Migrate(vc, targets, 60*sim.Minute)
			if err == nil && r.OK {
				copied := int64(0)
				for _, img := range r.Images {
					copied += 2 * img.SizeBytes()
				}
				o = wanOut{down: r.Downtime, copied: copied, ok: true}
			}
		}
		return o
	}

	wtbl := metrics.NewTable(fmt.Sprintf("E13b: the same %d-VM migration across a 2-datacenter WAN (100 MB/s, 2.5 ms)", nodes),
		"guest dirty rate", "method", "downtime", "bytes moved", "bytes skipped")
	wans := map[string]wanOut{}
	for i, rate := range []float64{5e6, 40e6} {
		stop := runWAN(opts.Seed+10+int64(i), rate, false, false)
		live := runWAN(opts.Seed+10+int64(i), rate, true, false)
		deltaO := runWAN(opts.Seed+10+int64(i), rate, true, true)
		key := fmt.Sprintf("%.0f", rate/1e6)
		wans["stop"+key], wans["live"+key], wans["delta"+key] = stop, live, deltaO
		label := fmt.Sprintf("%.0f MB/s", rate/1e6)
		wtbl.Row(label, "stop-and-copy", stop.down, fmtBytes(stop.copied), "-")
		wtbl.Row(label, "pre-copy live", live.down, fmtBytes(live.copied), "-")
		wtbl.Row(label, "pre-copy + delta", deltaO.down, fmtBytes(deltaO.copied), fmtBytes(deltaO.skipped))
	}
	res.table(wtbl, opts.out())

	res.check("all WAN migrations complete",
		wans["stop5"].ok && wans["live5"].ok && wans["delta5"].ok &&
			wans["stop40"].ok && wans["live40"].ok && wans["delta40"].ok, "")
	res.check("delta pre-copy elides untouched RAM on the WAN",
		wans["delta5"].skipped > 0 && wans["delta5"].copied < wans["live5"].copied,
		"delta moved %s (skipped %s) vs live %s",
		fmtBytes(wans["delta5"].copied), fmtBytes(wans["delta5"].skipped), fmtBytes(wans["live5"].copied))
	res.check("delta elision decays as guests dirty more RAM",
		wans["delta40"].skipped <= wans["delta5"].skipped,
		"40MB/s skipped %s vs 5MB/s skipped %s",
		fmtBytes(wans["delta40"].skipped), fmtBytes(wans["delta5"].skipped))
	return res
}
