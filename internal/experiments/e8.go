package experiments

import (
	"fmt"

	"dvc/internal/metrics"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/rm"
	"dvc/internal/sim"
	"dvc/internal/workload"
)

func init() {
	register("E8", "Fault-tolerant throughput: RM with DVC+LSC vs physical requeue (§1)", runE8)
}

// runE8 reproduces §1's reliability claims: with DVC, the resource
// manager keeps scheduling through node faults, and checkpointed jobs
// lose only the work since their last checkpoint; without it a fault
// costs the whole run.
func runE8(opts Options) *Result {
	res := &Result{}
	const nodes = 16
	jobCount := 12
	if opts.Full {
		jobCount = 40
	}

	tbl := metrics.NewTable(fmt.Sprintf("E8: %d-job mix on %d nodes with random faults", jobCount, nodes),
		"policy", "completed", "failed", "crashes", "makespan", "wasted node-time")
	// The three policies are independent simulations over the same seed.
	type policy struct {
		label    string
		backend  rm.Backend
		interval sim.Time
	}
	policies := []policy{
		{"physical + requeue", rm.Physical, 0},
		{"dvc, no checkpoints", rm.DVC, 0},
		{"dvc + LSC every 2m", rm.DVC, 2 * sim.Minute},
	}
	type outcome struct {
		stats   rm.Stats
		crashes int
	}
	outs := sweep(opts, policies, 1, func(p policy, _ int, _ *obs.Tracer) outcome {
		k := sim.NewKernel(opts.Seed)
		site := rmSite(k, nodes, []string{"alpha"})
		r := startRM(k, site, p.backend, p.interval)
		r.SubmitTrace(workload.Generate(k.Rand(), workload.MixConfig{
			Count:       jobCount,
			ArrivalMean: 45 * sim.Second,
			Widths:      []int{2, 4, 8},
			WorkMin:     4 * sim.Minute,
			WorkMax:     12 * sim.Minute,
		}))

		// Node faults: MTBF tuned for a handful of crashes over the
		// ~30-minute makespan (16 nodes x 30 min / 90 min ≈ 5 expected);
		// crashed nodes are repaired.
		inj := phys.NewInjector(k, phys.InjectorConfig{
			MTBF:       90 * sim.Minute,
			RepairTime: 5 * sim.Minute,
		})
		inj.Start(site.Nodes())
		drain(k, 24*sim.Hour, r)
		inj.Stop()
		return outcome{stats: r.Stats(), crashes: inj.Crashes()}
	})
	for i, out := range outs {
		o := out[0]
		tbl.Row(policies[i].label, o.stats.Completed, o.stats.Failed,
			o.crashes, o.stats.Makespan, o.stats.TotalWasted)
	}
	physOut, dvcCk := outs[0][0], outs[2][0]
	res.table(tbl, opts.out())

	res.check("all jobs complete under every policy",
		physOut.stats.Completed == jobCount && dvcCk.stats.Completed == jobCount,
		"phys %d, dvc+ckpt %d of %d", physOut.stats.Completed, dvcCk.stats.Completed, jobCount)
	res.check("faults actually happened", physOut.crashes > 0 && dvcCk.crashes > 0,
		"phys run saw %d, dvc run saw %d", physOut.crashes, dvcCk.crashes)
	res.check("DVC+LSC wastes less work than physical requeue",
		dvcCk.stats.TotalWasted < physOut.stats.TotalWasted,
		"dvc %v vs physical %v", dvcCk.stats.TotalWasted, physOut.stats.TotalWasted)
	return res
}
