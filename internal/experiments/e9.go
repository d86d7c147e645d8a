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

	newDVCRM := func(k *sim.Kernel, site *phys.Site) *rm.RM {
		env := core.NewEnv(site, rmLSC())
		cfg := rm.DefaultConfig(rm.DVC)
		cfg.CheckpointInterval = 0 // no faults in this experiment
		r := rm.New(k, site, env.Manager, env.Coord, cfg)
		r.Start()
		return r
	}

	type outcome struct {
		completed int
		makespan  sim.Time
		meanWait  sim.Time
		util      float64
	}

	// (a) Independent clusters: two separate RMs; each job goes to the
	// RM with the shorter backlog (narrower than either cluster).
	runIndependent := func(seed int64) outcome {
		k := sim.NewKernel(seed)
		siteA := phys.DefaultSite(k)
		siteA.AddCluster("alpha", perCluster, phys.DefaultSpec(), netsimEth())
		siteA.NTP.Start()
		siteB := phys.DefaultSite(k)
		siteB.AddCluster("beta", perCluster, phys.DefaultSpec(), netsimEth())
		siteB.NTP.Start()
		rmA, rmB := newDVCRM(k, siteA), newDVCRM(k, siteB)
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
		deadline := 24 * sim.Hour
		for k.Now() < deadline && !(rmA.AllDone() && rmB.AllDone()) {
			k.RunFor(30 * sim.Second)
		}
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
	}

	// (b) Spanning: one DVC pool over both clusters; a VC may straddle
	// them (homogeneous software stack via VMs — DVC goal 3).
	runSpanning := func(seed int64) outcome {
		k := sim.NewKernel(seed)
		site := phys.DefaultSite(k)
		site.AddCluster("alpha", perCluster, phys.DefaultSpec(), netsimEth())
		site.AddCluster("beta", perCluster, phys.DefaultSpec(), netsimEth())
		site.NTP.Start()
		r := newDVCRM(k, site)
		trace := workload.Generate(k.Rand(), mix)
		r.SubmitTrace(trace)
		deadline := 24 * sim.Hour
		for k.Now() < deadline && !r.AllDone() {
			k.RunFor(30 * sim.Second)
		}
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

	ind := runIndependent(opts.Seed)
	span := runSpanning(opts.Seed)

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
