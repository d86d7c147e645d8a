package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/obs"
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

	// One cell per (dirty rate, method); each rate's two methods share
	// a seed.
	type cell struct {
		rate        float64
		seed        int64
		live, delta bool
	}
	app := func(int) mpi.App { return hpcc.NewHalo(1<<20, 20*sim.Millisecond, 1024) }
	var cells []cell
	for i, rate := range []float64{5e6, 40e6, 100e6} {
		seed := opts.Seed + int64(i)
		cells = append(cells, cell{rate, seed, false, false}, cell{rate, seed, true, false})
	}
	lan := sweep(opts, cells, 1, func(c cell, _ int, _ *obs.Tracer) migration {
		b, vc := migrationBed(c.seed, "m", nodes, app, sim.Second)
		for _, d := range vc.Domains() {
			d.SetDirtyRate(c.rate)
		}
		m := b.migrate(vc, b.Site.UpNodes("beta"), c.live, 30*sim.Minute)
		// The guests must land on beta either way.
		for _, node := range vc.PhysicalNodes() {
			if node.Cluster() != "beta" {
				m.ok = false
			}
		}
		return m
	})

	tbl := metrics.NewTable(fmt.Sprintf("E13: migrating a running %d-VM cluster (%d MiB guests)", nodes, vmRAM>>20),
		"guest dirty rate", "method", "downtime", "total", "rounds", "bytes moved")
	outs := map[string]migration{}
	for i, c := range cells {
		o := lan[i][0]
		method, key := "stop-and-copy", "stop"
		if c.live {
			method, key = "pre-copy live", "live"
		}
		outs[fmt.Sprintf("%s%.0f", key, c.rate/1e6)] = o
		tbl.Row(fmt.Sprintf("%.0f MB/s", c.rate/1e6), method, o.down, o.total, o.rounds, fmtBytes(o.copied))
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
	var wanCells []cell
	for i, rate := range []float64{5e6, 40e6} {
		seed := opts.Seed + 10 + int64(i)
		wanCells = append(wanCells, cell{rate, seed, false, false}, cell{rate, seed, true, false}, cell{rate, seed, true, true})
	}
	wan := sweep(opts, wanCells, 1, func(c cell, _ int, _ *obs.Tracer) migration {
		lsc := core.DefaultNTPLSC()
		lsc.Delta = c.delta
		b := makeBed(c.seed, bedOptions{topo: wanTopo(nodes), lsc: lsc, ntp: true})
		vc := b.allocateOn("wm", nodes, phys.ClusterName(0, 0))
		// The dirty rate is set before boot here, after it on the LAN.
		for _, d := range vc.Domains() {
			d.SetDirtyRate(c.rate)
		}
		b.Kernel.RunFor(30 * sim.Second)
		launch(vc, app)
		b.Kernel.RunFor(sim.Second)
		return b.migrate(vc, b.Site.UpNodes(phys.ClusterName(1, 0)), c.live, 60*sim.Minute)
	})

	wtbl := metrics.NewTable(fmt.Sprintf("E13b: the same %d-VM migration across a 2-datacenter WAN (100 MB/s, 2.5 ms)", nodes),
		"guest dirty rate", "method", "downtime", "bytes moved", "bytes skipped")
	wans := map[string]migration{}
	for i, c := range wanCells {
		o := wan[i][0]
		method, key, skipped := "stop-and-copy", "stop", "-"
		switch {
		case c.delta:
			method, key, skipped = "pre-copy + delta", "delta", fmtBytes(o.skipped)
		case c.live:
			method, key = "pre-copy live", "live"
		}
		wans[fmt.Sprintf("%s%.0f", key, c.rate/1e6)] = o
		wtbl.Row(fmt.Sprintf("%.0f MB/s", c.rate/1e6), method, o.down, fmtBytes(o.copied), skipped)
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
