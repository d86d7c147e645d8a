package experiments

import (
	"fmt"

	"dvc/internal/clock"
	"dvc/internal/core"
	"dvc/internal/metrics"
	"dvc/internal/obs"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

func init() {
	register("A1", "Ablation: the TCP retry budget sets the LSC failure cliff", runA1)
	register("A2", "Ablation: how much clock error NTP-scheduled LSC tolerates", runA2)
}

// runA1 ablates the design constant DESIGN.md calls out: LSC's entire
// tolerance to save skew comes from the transport's retry budget. A
// smaller budget moves the naive coordinator's failure cliff toward
// smaller clusters; a bigger budget pushes it out. (The paper's fix —
// bounding skew with NTP — makes the budget irrelevant, which is the
// point of the last column.)
func runA1(opts Options) *Result {
	res := &Result{}
	trials := opts.trials(8, 0)
	const nodes = 10 // the paper's 50% point at the default budget

	tbl := metrics.NewTable(fmt.Sprintf("A1: naive LSC failure at %d nodes vs TCP retry budget", nodes),
		"max-retries", "retry budget", "naive fail%", "ntp fail%")
	// One cell per (retry budget, coordinator). The naive and NTP arms
	// are deliberately unpaired: the NTP arm's seeds sit 500 above.
	type cell struct {
		retries int
		ntp     bool
	}
	var cells []cell
	retriesList := []int{2, 4, 6}
	for _, retries := range retriesList {
		cells = append(cells, cell{retries, false}, cell{retries, true})
	}
	outs := sweep(opts, cells, trials, func(c cell, trial int, _ *obs.Tracer) trialResult {
		cfg := tcp.DefaultConfig()
		cfg.MaxRetries = c.retries
		seed := opts.Seed + int64(c.retries*1000+trial)
		o := bedOptions{lsc: core.DefaultNaiveLSC(), tcpCfg: &cfg}
		if c.ntp {
			seed += 500
			o = bedOptions{lsc: core.DefaultNTPLSC(), ntp: true, tcpCfg: &cfg}
		}
		return lscTrial(seed, nodes, o, halo(1500))
	})
	failAt := map[int]float64{}
	for ri, retries := range retriesList {
		cfg := tcp.DefaultConfig()
		cfg.MaxRetries = retries
		failAt[retries] = failPct(outs[2*ri])
		tbl.Row(retries, cfg.RetryBudget(cfg.InitialRTO), failAt[retries], failPct(outs[2*ri+1]))
	}
	res.table(tbl, opts.out())

	res.check("shorter budget fails more", failAt[2] > failAt[6],
		"retries=2: %.0f%% vs retries=6: %.0f%%", failAt[2], failAt[6])
	res.check("tight budget is (nearly) always fatal for the naive coordinator",
		failAt[2] >= 75, "%.0f%%", failAt[2])
	return res
}

// runA2 ablates the clock-quality requirement: NTP's few-millisecond
// residual is thousands of times tighter than LSC needs — the method only
// starts failing when clock error approaches the (half) retry budget,
// i.e. for clocks so bad no one would call them synchronised.
func runA2(opts Options) *Result {
	res := &Result{}
	trials := opts.trials(8, 0)
	const nodes = 12

	tbl := metrics.NewTable(fmt.Sprintf("A2: NTP-scheduled LSC at %d nodes vs clock residual error", nodes),
		"residual std", "skew.mean", "fail%")
	fails := map[sim.Time]float64{}
	residuals := []sim.Time{
		1500 * sim.Microsecond, // real LAN NTP (the paper's setting)
		100 * sim.Millisecond,  // badly congested NTP
		800 * sim.Millisecond,  // barely disciplined
		2 * sim.Second,         // effectively unsynchronised
	}
	outs := sweep(opts, residuals, trials, func(residual sim.Time, trial int, _ *obs.Tracer) trialResult {
		ntpCfg := clock.DefaultNTPConfig()
		ntpCfg.ResidualStd = residual
		o := bedOptions{lsc: core.DefaultNTPLSC(), ntp: true, ntpCfg: &ntpCfg}
		// The save instant must sit beyond the worst clock error.
		o.lsc.ScheduleLead = 2*sim.Second + 8*residual
		return lscTrial(opts.Seed+int64(residual)+int64(trial), nodes, o, halo(1500))
	})
	for ri, residual := range residuals {
		var skew metrics.Sample
		for _, r := range outs[ri] {
			skew.AddTime(r.ckpt.SaveSkew)
		}
		fails[residual] = failPct(outs[ri])
		tbl.Row(residual, fmtSeconds(skew.Mean()), fails[residual])
	}
	res.table(tbl, opts.out())

	res.check("paper-grade NTP never fails", fails[residuals[0]] == 0,
		"%.0f%%", fails[residuals[0]])
	res.check("100ms-class clocks still fine (huge safety margin)",
		fails[residuals[1]] == 0, "%.0f%%", fails[residuals[1]])
	res.check("unsynchronised clocks break LSC", fails[residuals[3]] > 0,
		"%.0f%% at 2s residual", fails[residuals[3]])
	return res
}

// failPct is the percentage of trials that failed.
func failPct(trials []trialResult) float64 {
	failures := 0
	for _, r := range trials {
		if !r.ok {
			failures++
		}
	}
	return pct(failures, len(trials))
}
