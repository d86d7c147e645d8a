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
	volume := opts.Trials
	if volume == 0 {
		volume = 30
	}
	if opts.Full {
		volume = 2000
	}
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

	// Bulk trials with continuous halo traffic, fanned across the fleet
	// pool; aggregation walks the results in trial order, so the table —
	// and with tracing on, the merged JSONL — is byte-identical to the
	// serial loop at any pool size.
	bulk := row{name: "halo-26", trials: volume}
	for _, r := range forEachTrial(opts, volume, func(trial int, tr *obs.Tracer) trialResult {
		return lscTrial(opts.Seed+int64(trial), nodes, bedOptions{lsc: lsc, ntp: true, tracer: tr}, halo(1500))
	}) {
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
		// down too (the replay-digest test runs E2 twice and wants the
		// cheapest run that still exercises every code path once).
		hpccTrials = opts.Trials
	}
	if opts.Full {
		hpccTrials = 10
	}
	// Flatten the (size, trial) × {PTRANS, HPL} matrix into one trial
	// list in the serial emission order: for each size, for each trial,
	// PTRANS then HPL.
	type hpccSpec struct {
		seed    int64
		isPT    bool
		makeApp func(int) mpi.App
	}
	var specs []hpccSpec
	for _, n := range []int{26, 52} {
		n := n
		for trial := 0; trial < hpccTrials; trial++ {
			trial := trial
			// PTRANS: ~1200 repetitions keep traffic flowing through the
			// save instant (the paper's consistency stress).
			specs = append(specs, hpccSpec{
				seed: opts.Seed + int64(7000+n+trial),
				isPT: true,
				makeApp: func(int) mpi.App {
					return hpcc.NewPTRANS(n, int64(trial), 1200, 0.02)
				},
			})
			// HPL: pick a compute rate that stretches the factorisation
			// to ~8 s of simulated time so the checkpoint lands mid-run.
			hn := 4 * n
			rate := (2.0 / 3.0 * float64(hn) * float64(hn) * float64(hn) / float64(nodes)) / 8 / 1e9
			specs = append(specs, hpccSpec{
				seed: opts.Seed + int64(8000+n+trial),
				makeApp: func(int) mpi.App {
					return hpcc.NewHPL(hn, int64(trial), rate)
				},
			})
		}
	}
	hpccOuts := forEachTrial(opts, len(specs), func(i int, tr *obs.Tracer) trialResult {
		return lscTrial(specs[i].seed, nodes, bedOptions{lsc: lsc, ntp: true, tracer: tr}, specs[i].makeApp)
	})
	ptransFail, hplFail := 0, 0
	var ptransSkew, hplSkew metrics.Sample
	nPT, nHPL := 0, 0
	for i, out := range hpccOuts {
		skew := &hplSkew
		if specs[i].isPT {
			skew = &ptransSkew
		}
		if out.ckpt.OK {
			skew.AddTime(out.ckpt.SaveSkew)
		}
		if specs[i].isPT {
			nPT++
			if !out.ok {
				ptransFail++
			}
		} else {
			nHPL++
			if !out.ok {
				hplFail++
			}
		}
	}
	tbl.Row("ptrans", nPT, ptransFail, fmtSeconds(ptransSkew.Mean()), fmtSeconds(ptransSkew.Max()), "-")
	tbl.Row("hpl", nHPL, hplFail, fmtSeconds(hplSkew.Mean()), fmtSeconds(hplSkew.Max()), "-")
	res.table(tbl, opts.out())

	total := bulk.trials + nPT + nHPL
	failures := bulk.failures + ptransFail + hplFail
	res.check("zero save/restore failures", failures == 0,
		"%d failures in %d trials (paper: 0 in >2000)", failures, total)
	res.check("NTP skew is milliseconds", bulk.skew.Max() < 0.05,
		"max skew %.1f ms", bulk.skew.Max()*1000)
	return res
}
