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
	register("E9", "Multi-cluster spanning VCs vs independent clusters (§1)", runE9)
}

// runE9 reproduces §1's claim that "a system that can transparently span
// parallel jobs between multiple clusters will outperform those same
// clusters acting independently": the same job mix runs on (a) two
// 12-node clusters scheduled independently and (b) the same hardware as
// one DVC pool where virtual clusters may span.
func runE9(opts Options) *Result {
	res := &Result{}
	const perCluster = 12
	jobCount := 14
	if opts.Full {
		jobCount = 40
	}

	mix := workload.MixConfig{
		Count:       jobCount,
		ArrivalMean: 20 * sim.Second,
		// Wide jobs that neither half-filled cluster can place alone.
		Widths:       []int{2, 4, 8, 10},
		WidthWeights: []float64{2, 3, 3, 2},
		WorkMin:      3 * sim.Minute,
		WorkMax:      8 * sim.Minute,
	}

	type outcome struct {
		completed int
		makespan  sim.Time
		meanWait  sim.Time
		util      float64
	}
	// (a) Independent clusters: two separate RMs, each job alternating
	// between them (every job is narrower than either cluster).
	// (b) Spanning: one DVC pool over both clusters; a VC may straddle
	// them (homogeneous software stack via VMs — DVC goal 3).
	outs := sweep(opts, []bool{false, true}, 1, func(spanning bool, _ int, _ *obs.Tracer) outcome {
		k := sim.NewKernel(opts.Seed)
		if spanning {
			r := startRM(k, rmSite(k, perCluster, []string{"alpha", "beta"}), rm.DVC, 0)
			r.SubmitTrace(workload.Generate(k.Rand(), mix))
			drain(k, 24*sim.Hour, r)
			s := r.Stats()
			var wait sim.Time
			if s.Completed > 0 {
				wait = s.TotalWaited / sim.Time(s.Completed)
			}
			return outcome{
				completed: s.Completed,
				makespan:  s.Makespan,
				meanWait:  wait,
				util:      s.Utilization(2*perCluster, s.Makespan),
			}
		}
		siteA := rmSite(k, perCluster, []string{"alpha"})
		siteB := rmSite(k, perCluster, []string{"beta"})
		rmA, rmB := startRM(k, siteA, rm.DVC, 0), startRM(k, siteB, rm.DVC, 0)
		trace := workload.Generate(k.Rand(), mix)
		var lastArrival sim.Time
		for i, spec := range trace {
			spec := spec
			target := rmA
			if i%2 == 1 {
				target = rmB
			}
			if spec.Arrival > lastArrival {
				lastArrival = spec.Arrival
			}
			k.At(spec.Arrival, func() { target.Submit(spec) })
		}
		k.RunUntil(lastArrival + sim.Second) // all jobs have arrived
		drain(k, 24*sim.Hour, rmA, rmB)
		sa, sb := rmA.Stats(), rmB.Stats()
		mk := sa.Makespan
		if sb.Makespan > mk {
			mk = sb.Makespan
		}
		done := sa.Completed + sb.Completed
		var wait sim.Time
		if done > 0 {
			wait = (sa.TotalWaited + sb.TotalWaited) / sim.Time(done)
		}
		util := (sa.BusyNodeTime + sb.BusyNodeTime).Seconds() / (2 * perCluster * mk.Seconds())
		return outcome{completed: done, makespan: mk, meanWait: wait, util: util}
	})
	ind, span := outs[0][0], outs[1][0]

	tbl := metrics.NewTable("E9: same hardware, independent clusters vs one spanning DVC pool",
		"configuration", "completed", "makespan", "mean wait", "utilization")
	tbl.Row("2 independent 12-node clusters", ind.completed, ind.makespan, ind.meanWait, fmt.Sprintf("%.0f%%", 100*ind.util))
	tbl.Row("1 spanning 24-node DVC pool", span.completed, span.makespan, span.meanWait, fmt.Sprintf("%.0f%%", 100*span.util))
	res.table(tbl, opts.out())

	res.check("all jobs complete in both configurations",
		ind.completed == jobCount && span.completed == jobCount,
		"independent %d, spanning %d of %d", ind.completed, span.completed, jobCount)
	res.check("spanning improves makespan", span.makespan < ind.makespan,
		"spanning %v vs independent %v", span.makespan, ind.makespan)
	res.check("spanning reduces mean wait", span.meanWait < ind.meanWait,
		"spanning %v vs independent %v", span.meanWait, ind.meanWait)
	return res
}
