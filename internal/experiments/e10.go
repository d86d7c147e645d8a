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
	trials := opts.trials(10, 30)

	tbl := metrics.NewTable(fmt.Sprintf("E10: checkpoint-set success vs size (per-VM sleeper failure %.1f%%)", 100*sleeperFail),
		"VMs", "analytic (1-p)^n", "no health-check", "health-check", "mean attempts")

	sizes := []int{26, 64, 128, 256}
	if opts.Full {
		sizes = append(sizes, 512, 1024)
	}
	// One cell per (size, health check), each with its own seed base:
	// the plain and health-checked arms are deliberately unpaired.
	type cell struct {
		n      int
		health bool
		seed   int64
	}
	var cells []cell
	for _, n := range sizes {
		cells = append(cells, cell{n, false, opts.Seed + int64(100000*n)}, cell{n, true, opts.Seed + int64(200000*n)})
	}
	outs := sweep(opts, cells, trials, func(c cell, trial int, _ *obs.Tracer) int {
		lsc := core.DefaultNTPLSC()
		lsc.SleeperFailProb = sleeperFail
		lsc.HealthCheck = c.health
		lsc.HealthRetries = 20
		b := newBed(c.seed+int64(trial), map[string]int{"alpha": c.n}, lsc, true)
		// Idle VCs: at this scale the coordination failure mode is
		// independent of guest traffic, and idle guests keep the
		// sweep tractable.
		vc := b.allocate("e10", c.n, guest.WatchdogConfig{})
		attempts := 0 // a failed checkpoint counts none
		if r, _ := b.Checkpoint(vc, 30*sim.Minute); r != nil && r.OK {
			attempts = r.Attempts
		}
		vc.Release()
		return attempts
	})
	// tally counts a cell's successful trials and their mean attempts.
	tally := func(attempts []int) (ok int, mean float64) {
		for _, a := range attempts {
			if a > 0 {
				ok++
				mean += float64(a)
			}
		}
		if ok > 0 {
			mean /= float64(ok)
		}
		return ok, mean
	}
	noHC := map[int]float64{}
	withHC := map[int]float64{}
	for si, n := range sizes {
		okPlain, _ := tally(outs[2*si])
		okHC, att := tally(outs[2*si+1])
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
