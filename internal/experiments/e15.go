package experiments

import (
	"fmt"

	"dvc/internal/metrics"
	"dvc/internal/obs"
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

	type outcome struct {
		completed int
		stuck     int // jobs still queued at the deadline
		makespan  sim.Time
		meanWait  sim.Time
	}
	outs := sweep(opts, []rm.Backend{rm.Physical, rm.DVC}, 1, func(backend rm.Backend, _ int, _ *obs.Tracer) outcome {
		k := sim.NewKernel(opts.Seed)
		site := rmSite(k, perCluster, []string{"alpha", "beta"}, "rhel4-mpich", "suse9-lam")
		r := startRM(k, site, backend, 0)
		// An asymmetric mix: most jobs need stack A, so the B cluster
		// idles under native scheduling while A's queue grows.
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
		r.SubmitTrace(trace)
		drain(k, 12*sim.Hour, r)
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
	})
	native, dvcOut := outs[0][0], outs[1][0]

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
