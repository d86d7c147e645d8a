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
	trials := opts.Trials
	if trials == 0 {
		trials = 8
	}
	const nodes = 10 // the paper's 50% point at the default budget

	tbl := metrics.NewTable(fmt.Sprintf("A1: naive LSC failure at %d nodes vs TCP retry budget", nodes),
		"max-retries", "retry budget", "naive fail%", "ntp fail%")
	// Flatten the (retries, trial) × {naive, ntp} matrix into one trial
	// list in serial emission order — for each budget, for each trial,
	// naive then ntp — and fan it across the fleet pool. Each budget's
	// tcp.Config lives once and is shared read-only by its trial closures.
	retriesList := []int{2, 4, 6}
	type a1Spec struct {
		seed int64
		o    bedOptions
	}
	var specs []a1Spec
	budgets := make([]sim.Time, len(retriesList))
	for ri, retries := range retriesList {
		cfg := tcp.DefaultConfig()
		cfg.MaxRetries = retries
		budgets[ri] = cfg.RetryBudget(cfg.InitialRTO)
		for trial := 0; trial < trials; trial++ {
			specs = append(specs, a1Spec{
				seed: opts.Seed + int64(retries*1000+trial),
				o:    bedOptions{lsc: core.DefaultNaiveLSC(), tcpCfg: &cfg},
			})
			specs = append(specs, a1Spec{
				seed: opts.Seed + int64(retries*1000+trial+500),
				o:    bedOptions{lsc: core.DefaultNTPLSC(), ntp: true, tcpCfg: &cfg},
			})
		}
	}
	outs := forEachTrial(opts, len(specs), func(i int, _ *obs.Tracer) trialResult {
		return lscTrial(specs[i].seed, nodes, specs[i].o, halo(1500))
	})
	failAt := map[int]float64{}
	for ri, retries := range retriesList {
		naiveFails, ntpFails := 0, 0
		base := ri * 2 * trials
		for trial := 0; trial < trials; trial++ {
			if !outs[base+2*trial].ok {
				naiveFails++
			}
			if !outs[base+2*trial+1].ok {
				ntpFails++
			}
		}
		failAt[retries] = pct(naiveFails, trials)
		tbl.Row(retries, budgets[ri], failAt[retries], pct(ntpFails, trials))
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
	trials := opts.Trials
	if trials == 0 {
		trials = 8
	}
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
	// Flatten the (residual, trial) sweep and fan it across the fleet
	// pool; each residual's NTP config lives once and is shared read-only
	// by its trial closures. Aggregation walks the results in the serial
	// loop's order, so the table is identical at any pool size.
	type a2Spec struct {
		seed int64
		o    bedOptions
	}
	var specs []a2Spec
	for _, residual := range residuals {
		ntpCfg := clock.DefaultNTPConfig()
		ntpCfg.ResidualStd = residual
		for trial := 0; trial < trials; trial++ {
			o := bedOptions{lsc: core.DefaultNTPLSC(), ntp: true, ntpCfg: &ntpCfg}
			// The save instant must sit beyond the worst clock error.
			o.lsc.ScheduleLead = 2*sim.Second + 8*residual
			specs = append(specs, a2Spec{seed: opts.Seed + int64(residual) + int64(trial), o: o})
		}
	}
	outs := forEachTrial(opts, len(specs), func(i int, _ *obs.Tracer) trialResult {
		return lscTrial(specs[i].seed, nodes, specs[i].o, halo(1500))
	})
	for ri, residual := range residuals {
		failures := 0
		var skew metrics.Sample
		for _, r := range outs[ri*trials : (ri+1)*trials] {
			if !r.ok {
				failures++
			}
			skew.AddTime(r.ckpt.SaveSkew)
		}
		fails[residual] = pct(failures, trials)
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
