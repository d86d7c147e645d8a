package experiments

import (
	"dvc/internal/core"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/obs"
)

func init() {
	register("E2", "NTP LSC: save/restore reliability at 26 VMs on 26 nodes (§3.2)", runE2)
}

// runE2 reproduces the paper's headline result: "In more than 2000 tests
// involving 26 virtual machines on 26 different nodes, no failures to
// either save or restore all virtual machines occurred." Both PTRANS and
// HPL are exercised (PTRANS being the communication-heavy consistency
// stress), across problem sizes and checkpoint timings, plus a bulk
// halo-exchange volume run for the trial count.
func runE2(opts Options) *Result {
	res := &Result{}
	const nodes = 26

	// Volume trials (halo workload, cheap): paper-scale count with -full.
	volume := opts.trials(30, 2000)
	lsc := core.DefaultNTPLSC()

	tbl := metrics.NewTable("E2: NTP-coordinated LSC, 26 VMs on 26 nodes",
		"workload", "trials", "save/restore failures", "skew.mean", "skew.max", "downtime.mean")

	type row struct {
		name     string
		trials   int
		failures int
		skew     metrics.Sample
		down     metrics.Sample
	}

	// Bulk trials with continuous halo traffic.
	bulk := row{name: "halo-26", trials: volume}
	for _, r := range sweep(opts, []int{nodes}, volume, func(n, trial int, tr *obs.Tracer) trialResult {
		return lscTrial(opts.Seed+int64(trial), n, bedOptions{lsc: lsc, ntp: true, tracer: tr}, halo(1500))
	})[0] {
		if !r.ok {
			bulk.failures++
		}
		bulk.skew.AddTime(r.ckpt.SaveSkew)
		bulk.down.AddTime(r.ckpt.Downtime)
	}
	tbl.Row(bulk.name, bulk.trials, bulk.failures,
		fmtSeconds(bulk.skew.Mean()), fmtSeconds(bulk.skew.Max()), fmtSeconds(bulk.down.Mean()))

	// PTRANS and HPL trials across problem sizes and checkpoint delays,
	// verified numerically after restore.
	hpccTrials := 3
	if opts.Trials > 0 && opts.Trials < hpccTrials {
		// A small explicit -trials request scales the verified HPCC matrix
		// down too (the determinism tests run E2 four times and want the
		// cheapest run that still exercises every code path once).
		hpccTrials = opts.Trials
	}
	if opts.Full {
		hpccTrials = 10
	}
	// One cell per (size, trial, workload), in the trace's order: for
	// each size, for each trial, PTRANS then HPL.
	type hpccCell struct {
		n, trial int
		ptrans   bool
	}
	var cells []hpccCell
	for _, n := range []int{26, 52} {
		for trial := 0; trial < hpccTrials; trial++ {
			cells = append(cells, hpccCell{n, trial, true}, hpccCell{n, trial, false})
		}
	}
	outs := sweep(opts, cells, 1, func(c hpccCell, _ int, tr *obs.Tracer) trialResult {
		o := bedOptions{lsc: lsc, ntp: true, tracer: tr}
		if c.ptrans {
			// ~1200 repetitions keep traffic flowing through the save
			// instant (the paper's consistency stress).
			return lscTrial(opts.Seed+int64(7000+c.n+c.trial), nodes, o, func(int) mpi.App {
				return hpcc.NewPTRANS(c.n, int64(c.trial), 1200, 0.02)
			})
		}
		// HPL: pick a compute rate that stretches the factorisation to
		// ~8 s of simulated time so the checkpoint lands mid-run.
		hn := 4 * c.n
		rate := (2.0 / 3.0 * float64(hn) * float64(hn) * float64(hn) / float64(nodes)) / 8 / 1e9
		return lscTrial(opts.Seed+int64(8000+c.n+c.trial), nodes, o, func(int) mpi.App {
			return hpcc.NewHPL(hn, int64(c.trial), rate)
		})
	})
	pt := row{name: "ptrans"}
	hpl := row{name: "hpl"}
	for i, out := range outs {
		r := &hpl
		if cells[i].ptrans {
			r = &pt
		}
		if out[0].ckpt.OK {
			r.skew.AddTime(out[0].ckpt.SaveSkew)
		}
		r.trials++
		if !out[0].ok {
			r.failures++
		}
	}
	for _, r := range []row{pt, hpl} {
		tbl.Row(r.name, r.trials, r.failures, fmtSeconds(r.skew.Mean()), fmtSeconds(r.skew.Max()), "-")
	}
	res.table(tbl, opts.out())

	total := bulk.trials + pt.trials + hpl.trials
	failures := bulk.failures + pt.failures + hpl.failures
	res.check("zero save/restore failures", failures == 0,
		"%d failures in %d trials (paper: 0 in >2000)", failures, total)
	res.check("NTP skew is milliseconds", bulk.skew.Max() < 0.05,
		"max skew %.1f ms", bulk.skew.Max()*1000)
	return res
}
