package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/metrics"
	"dvc/internal/obs"
	"dvc/internal/tcp"
)

func init() {
	register("E1", "Naive LSC: checkpoint failure rate vs node count (§3.1)", runE1)
}

// runE1 reproduces the paper's naive-coordinator evaluation: "did not
// scale beyond 8 nodes, with 10 nodes failing 50% of the time and 12
// nodes failing 90% of the time."
func runE1(opts Options) *Result {
	res := &Result{}
	trials := opts.trials(10, 40)
	lsc := core.DefaultNaiveLSC()
	budget := tcp.DefaultConfig().RetryBudget(tcp.DefaultConfig().InitialRTO)

	tbl := metrics.NewTable("E1: naive LSC failure rate (TCP retry budget "+budget.String()+")",
		"nodes", "trials", "failures", "fail%", "skew.mean", "skew.max")
	failPct := map[int]float64{}
	sizes := []int{2, 4, 6, 8, 10, 12}
	results := sweep(opts, sizes, trials, func(n, trial int, _ *obs.Tracer) trialResult {
		return lscTrial(opts.Seed+int64(1000*n+trial), n, bedOptions{lsc: lsc}, halo(1500))
	})
	for si, n := range sizes {
		failures := 0
		var skew metrics.Sample
		for _, r := range results[si] {
			if !r.ok {
				failures++
			}
			skew.AddTime(r.ckpt.SaveSkew)
		}
		failPct[n] = pct(failures, trials)
		tbl.Row(n, trials, failures, failPct[n],
			fmtSeconds(skew.Mean()), fmtSeconds(skew.Max()))
	}
	res.table(tbl, opts.out())

	res.check("reliable through 8 nodes", failPct[4] <= 20 && failPct[8] <= 25,
		"fail%%: 4->%.0f 8->%.0f", failPct[4], failPct[8])
	res.check("~half fail at 10 nodes", failPct[10] >= 20 && failPct[10] <= 85,
		"fail%% at 10 = %.0f (paper: 50)", failPct[10])
	res.check("most fail at 12 nodes", failPct[12] >= 60,
		"fail%% at 12 = %.0f (paper: 90)", failPct[12])
	res.check("failure rate grows with node count",
		failPct[12] >= failPct[10] && failPct[10] >= failPct[8],
		"8->%.0f 10->%.0f 12->%.0f", failPct[8], failPct[10], failPct[12])
	return res
}

// fmtSeconds renders a seconds quantity with a sensible unit.
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 0.001:
		return fmt.Sprintf("%.0fus", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1000)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
