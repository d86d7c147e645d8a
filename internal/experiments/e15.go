package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/metrics"
	"dvc/internal/phys"
	"dvc/internal/rm"
	"dvc/internal/sim"
	"dvc/internal/workload"
)

func init() {
	register("E15", "Heterogeneous software stacks: DVC's founding motivation (§1 goals 1-2)", runE15)
}

// runE15 tests the reason DVC exists: "The primary motivation for the
// creation of DVC was to increase the throughput and productivity of
// multi-cluster environments by providing a homogeneous software stack
// for jobs running across clusters." Two clusters run different software
// stacks; half the jobs were built against each. Natively, every job is
// locked to its matching cluster; with DVC the whole pool serves every
// job.
func runE15(opts Options) *Result {
	res := &Result{}
	const perCluster = 8
	jobCount := 12
	if opts.Full {
		jobCount = 32
	}

	// An asymmetric mix: most jobs need stack A, so the B cluster idles
	// under native scheduling while A's queue grows.
	makeTrace := func(k *sim.Kernel) []workload.JobSpec {
		trace := workload.Generate(k.Rand(), workload.MixConfig{
			Count:       jobCount,
			ArrivalMean: 15 * sim.Second,
			Widths:      []int{2, 4},
			WorkMin:     2 * sim.Minute,
			WorkMax:     6 * sim.Minute,
		})
		for i := range trace {
			if i%4 == 3 {
				trace[i].Stack = "suse9-lam"
			} else {
				trace[i].Stack = "rhel4-mpich"
			}
		}
		return trace
	}

	type outcome struct {
		completed int
		stuck     int
		makespan  sim.Time
		meanWait  sim.Time
	}
	run := func(seed int64, backend rm.Backend) outcome {
		k := sim.NewKernel(seed)
		site := phys.DefaultSite(k)
		site.AddCluster("alpha", perCluster, phys.DefaultSpec(), netsimEth())
		site.AddCluster("beta", perCluster, phys.DefaultSpec(), netsimEth())
		site.SetClusterStack("alpha", "rhel4-mpich")
		site.SetClusterStack("beta", "suse9-lam")
		site.NTP.Start()
		var mgr *core.Manager
		var coord *core.Coordinator
		if backend == rm.DVC {
			env := core.NewEnv(site, rmLSC())
			mgr, coord = env.Manager, env.Coord
		}
		cfg := rm.DefaultConfig(backend)
		cfg.CheckpointInterval = 0
		r := rm.New(k, site, mgr, coord, cfg)
		r.Start()
		r.SubmitTrace(makeTrace(k))
		deadline := 12 * sim.Hour
		for k.Now() < deadline && !r.AllDone() {
			k.RunFor(30 * sim.Second)
		}
		s := r.Stats()
		o := outcome{completed: s.Completed, makespan: s.Makespan}
		if s.Completed > 0 {
			o.meanWait = s.TotalWaited / sim.Time(s.Completed)
		}
		for _, j := range r.Jobs() {
			if j.State == rm.Queued {
				o.stuck++
			}
		}
		return o
	}

	native := run(opts.Seed, rm.Physical)
	dvcOut := run(opts.Seed, rm.DVC)

	tbl := metrics.NewTable(
		fmt.Sprintf("E15: %d jobs (75%% rhel4-mpich, 25%% suse9-lam) on alpha=rhel4 + beta=suse9", jobCount),
		"scheduling", "completed", "makespan", "mean wait")
	tbl.Row("native (stack-locked)", native.completed, native.makespan, native.meanWait)
	tbl.Row("DVC (stack inside the VM)", dvcOut.completed, dvcOut.makespan, dvcOut.meanWait)
	res.table(tbl, opts.out())

	res.check("both complete every runnable job",
		native.completed == jobCount && dvcOut.completed == jobCount,
		"native %d, dvc %d of %d", native.completed, dvcOut.completed, jobCount)
	res.check("DVC improves makespan by pooling stack-locked clusters",
		dvcOut.makespan < native.makespan,
		"dvc %v vs native %v", dvcOut.makespan, native.makespan)
	res.check("DVC cuts queue waits",
		dvcOut.meanWait < native.meanWait,
		"dvc %v vs native %v", dvcOut.meanWait, native.meanWait)
	return res
}
