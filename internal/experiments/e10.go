package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/metrics"
	"dvc/internal/obs"
	"dvc/internal/sim"
)

func init() {
	register("E10", "Scaling LSC to hundreds/thousands of nodes: health-checked saves (§4)", runE10)
}

// runE10 reproduces §4's scaling argument: "The largest issue for
// scalability is that with more nodes in a checkpoint set, the larger the
// likelihood of a single VM checkpoint failing. With greater error
// checking, and a coordinated health check of checkpoint processes,
// scaling to hundreds or even thousands of nodes should be possible."
//
// Each node's sleeper process dies before the save instant with a small
// probability; without the health check one dead sleeper dooms the whole
// set, so success decays as (1-p)^n. With the check the coordinator
// aborts cleanly and retries.
func runE10(opts Options) *Result {
	res := &Result{}
	const sleeperFail = 0.002
	trials := opts.Trials
	if trials == 0 {
		trials = 10
	}
	if opts.Full {
		trials = 30
	}

	tbl := metrics.NewTable(fmt.Sprintf("E10: checkpoint-set success vs size (per-VM sleeper failure %.1f%%)", 100*sleeperFail),
		"VMs", "analytic (1-p)^n", "no health-check", "health-check", "mean attempts")

	sizes := []int{26, 64, 128, 256}
	if opts.Full {
		sizes = append(sizes, 512, 1024)
	}
	// Flatten the (size, health, trial) sweep into one trial list in the
	// serial emission order — for each size, all plain trials then all
	// health-checked trials — and fan it across the fleet pool. Each trial
	// is a self-contained bed, so the whole sweep parallelises.
	type e10Spec struct {
		n      int
		health bool
		seed   int64
	}
	type e10Trial struct {
		ok       bool
		attempts int
	}
	var specs []e10Spec
	for _, n := range sizes {
		for trial := 0; trial < trials; trial++ {
			specs = append(specs, e10Spec{n, false, opts.Seed + int64(100000*n) + int64(trial)})
		}
		for trial := 0; trial < trials; trial++ {
			specs = append(specs, e10Spec{n, true, opts.Seed + int64(200000*n) + int64(trial)})
		}
	}
	outs := forEachTrial(opts, len(specs), func(i int, _ *obs.Tracer) e10Trial {
		s := specs[i]
		lsc := core.DefaultNTPLSC()
		lsc.SleeperFailProb = sleeperFail
		lsc.HealthCheck = s.health
		lsc.HealthRetries = 20
		b := newBed(s.seed, map[string]int{"alpha": s.n}, lsc, true)
		// Idle VCs: at this scale the coordination failure mode is
		// independent of guest traffic, and idle guests keep the
		// sweep tractable.
		vc := b.allocate("e10", s.n, guest.WatchdogConfig{})
		r, _ := b.Checkpoint(vc, 30*sim.Minute)
		out := e10Trial{}
		if r != nil && r.OK {
			out.ok = true
			out.attempts = r.Attempts
		}
		vc.Release()
		return out
	})
	tally := func(rs []e10Trial) (ok int, attempts float64) {
		for _, r := range rs {
			if r.ok {
				ok++
				attempts += float64(r.attempts)
			}
		}
		if ok > 0 {
			attempts /= float64(ok)
		}
		return ok, attempts
	}
	noHC := map[int]float64{}
	withHC := map[int]float64{}
	for si, n := range sizes {
		base := si * 2 * trials
		okPlain, _ := tally(outs[base : base+trials])
		okHC, att := tally(outs[base+trials : base+2*trials])
		noHC[n] = pct(okPlain, trials)
		withHC[n] = pct(okHC, trials)
		analytic := 100 * pow1p(1-sleeperFail, n)
		tbl.Row(n, fmt.Sprintf("%.0f%%", analytic),
			fmt.Sprintf("%.0f%%", noHC[n]), fmt.Sprintf("%.0f%%", withHC[n]),
			fmt.Sprintf("%.2f", att))
	}
	res.table(tbl, opts.out())

	last := sizes[len(sizes)-1]
	res.check("plain success decays with scale", noHC[last] < noHC[sizes[0]],
		"%d VMs: %.0f%% vs %d VMs: %.0f%%", sizes[0], noHC[sizes[0]], last, noHC[last])
	res.check("health check keeps success high at scale", withHC[last] == 100,
		"%.0f%% at %d VMs", withHC[last], last)
	res.check("health check dominates everywhere", allGE(withHC, noHC),
		"")
	return res
}

func pow1p(base float64, n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= base
	}
	return out
}

func allGE(a, b map[int]float64) bool {
	for k, v := range a {
		if v < b[k] {
			return false
		}
	}
	return true
}
