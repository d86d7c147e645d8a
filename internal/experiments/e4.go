package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/obs"
	"dvc/internal/sim"
)

func init() {
	register("E4", "Checkpoint overhead and the wall-clock jump (§3.2)", runE4)
}

// runE4 reproduces §3.2's timing observations: periodic LSC cycles slow
// the run down, and because "time was not virtualised in any virtual
// machine, the jump in wall time due to the checkpoint caused HPL to
// report a greatly increased execution time" — the application's own
// wall-clock measurement includes every frozen interval, while CPU
// (guest-jiffies) time does not.
func runE4(opts Options) *Result {
	res := &Result{}
	const nodes = 8

	tbl := metrics.NewTable("E4: HPL/PTRANS under periodic save/restore cycles (8 VMs)",
		"workload", "ckpt-interval", "ckpts", "cpu-time", "reported-wall", "wall/cpu", "slowdown-vs-none")

	type outcome struct {
		wall, cpu sim.Time
		ckpts     int
	}
	workloads := []string{"hpl-N160", "ptrans-N64"}
	intervals := []sim.Time{0, 30 * sim.Second, 15 * sim.Second}
	type cell struct {
		workload string
		interval sim.Time
		seed     int64
	}
	var cells []cell
	for wi, w := range workloads {
		for ii, interval := range intervals {
			cells = append(cells, cell{w, interval, opts.Seed + int64(wi*10+ii)})
		}
	}
	outs := sweep(opts, cells, 1, func(c cell, _ int, _ *obs.Tracer) outcome {
		b := newBed(c.seed, map[string]int{"alpha": nodes}, core.DefaultNTPLSC(), true)
		vc := b.allocate("e4", nodes, guest.WatchdogConfig{})
		// HPL sized to ~60 s of factorisation (341 kflop/rank at 8
		// ranks); PTRANS sized to ~60 s with compute-weighted
		// repetitions.
		app := func(int) mpi.App { return hpcc.NewHPL(160, 42, 5.7e-6) }
		if c.workload == "ptrans-N64" {
			app = func(int) mpi.App { return hpcc.NewPTRANS(64, 42, 1200, 3e-5) }
		}
		launch(vc, app)
		var per *core.Periodic
		if c.interval > 0 {
			per = b.Coord.StartPeriodic(vc, c.interval, nil)
		}
		js := b.RunUntilJobDone(vc, 4*sim.Hour)
		if per != nil {
			per.Stop()
		}
		if !js.AllOK() {
			panic(fmt.Sprintf("E4 job failed: %+v", js))
		}
		out := outcome{}
		switch a := vc.RankApps()[0].(type) {
		case *hpcc.HPL:
			if !a.Passed {
				panic("E4 HPL verification failed")
			}
			out.wall, out.cpu = a.WallTime(), a.CPUTime()
		case *hpcc.PTRANS:
			if !a.Passed {
				panic("E4 PTRANS verification failed")
			}
			out.wall, out.cpu = a.WallTime(), a.CPUTime()
		}
		if per != nil {
			out.ckpts = per.SucceededCount()
		}
		return out
	})
	type key struct {
		name     string
		interval sim.Time
	}
	results := map[key]outcome{}
	for i, c := range cells {
		o := outs[i][0]
		results[key{c.workload, c.interval}] = o
		base := results[key{c.workload, 0}]
		label := "none"
		if c.interval > 0 {
			label = c.interval.String()
		}
		slow := 100 * (o.wall.Seconds() - base.wall.Seconds()) / base.wall.Seconds()
		tbl.Row(c.workload, label, o.ckpts, o.cpu, o.wall,
			fmt.Sprintf("%.2f", o.wall.Seconds()/o.cpu.Seconds()),
			fmt.Sprintf("%.0f%%", slow))
	}
	res.table(tbl, opts.out())

	hplNone := results[key{"hpl-N160", 0}]
	hpl15 := results[key{"hpl-N160", 15 * sim.Second}]
	pt30 := results[key{"ptrans-N64", 30 * sim.Second}]
	wallCPUDiff := hplNone.wall - hplNone.cpu
	if wallCPUDiff < 0 {
		wallCPUDiff = -wallCPUDiff
	}
	// NTP residual error shifts individual host-clock readings by a few
	// ms, so "equal" means equal up to clock error.
	res.check("no checkpoints: wall == cpu", wallCPUDiff < 50*sim.Millisecond,
		"wall %v cpu %v", hplNone.wall, hplNone.cpu)
	res.check("checkpointing inflates reported wall time", hpl15.wall > hplNone.wall && hpl15.ckpts > 0,
		"wall %v after %d ckpts vs %v baseline", hpl15.wall, hpl15.ckpts, hplNone.wall)
	res.check("wall-clock jump: wall >> cpu under checkpoints",
		hpl15.wall.Seconds() > 1.2*hpl15.cpu.Seconds(),
		"wall/cpu = %.2f", hpl15.wall.Seconds()/hpl15.cpu.Seconds())
	res.check("denser checkpoints cost more",
		hpl15.wall > results[key{"hpl-N160", 30 * sim.Second}].wall,
		"15s: %v vs 30s: %v", hpl15.wall, results[key{"hpl-N160", 30 * sim.Second}].wall)
	res.check("ptrans also slowed", pt30.wall > results[key{"ptrans-N64", 0}].wall && pt30.ckpts > 0,
		"wall %v vs %v", pt30.wall, results[key{"ptrans-N64", 0}].wall)
	return res
}
