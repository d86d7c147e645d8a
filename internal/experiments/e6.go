package experiments

import (
	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/sim"
	"strconv"
	"strings"
)

func init() {
	register("E6", "Guest watchdog timeouts accumulate, one per save/restore cycle (§3.2)", runE6)
}

// runE6 reproduces the §3.2 observation: "a software watchdog timer was
// enabled in all virtual machines. Each save and restoration of a virtual
// machine caused a watchdog timeout to be reported. Although this did not
// affect the execution of the environment, it did cause a large number of
// kernel messages to accumulate."
func runE6(opts Options) *Result {
	res := &Result{}
	const nodes = 4
	cycles := 3
	if opts.Full {
		cycles = 10
	}

	lsc := core.DefaultNTPLSC()
	b := newBed(opts.Seed, map[string]int{"alpha": nodes}, lsc, true)
	vc := b.allocate("e6", nodes, guest.DefaultWatchdog())
	launch(vc, func(int) mpi.App { return hpcc.NewHalo(1<<20, 20*sim.Millisecond, 2048) })
	b.Kernel.RunFor(30 * sim.Second)

	tbl := metrics.NewTable("E6: watchdog reports per VM across checkpoint cycles",
		"cycle", "downtime", "timeouts/vm (min..max)", "wd-log-lines/vm", "job-affected")
	perfect := true
	for cycle := 1; cycle <= cycles; cycle++ {
		r, _ := b.Checkpoint(vc, 10*sim.Minute)
		if r == nil || !r.OK {
			res.check("checkpoint cycles succeed", false, "cycle %d failed", cycle)
			return res
		}
		b.Kernel.RunFor(45 * sim.Second) // let the post-restore watchdog tick land
		lo, hi, lines := 1<<30, 0, 0
		for _, o := range vc.OSes() {
			n := o.WatchdogTimeouts()
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
			for _, e := range o.KernelLog() {
				if strings.HasPrefix(e.Msg, "watchdog") {
					lines++
				}
			}
		}
		affected := vc.JobStatus().Failed > 0
		tbl.Row(cycle, r.Downtime, rangeStr(lo, hi), lines/nodes, affected)
		if lo != cycle || hi != cycle || affected {
			perfect = false
		}
	}
	res.table(tbl, opts.out())

	res.check("exactly one watchdog report per VM per cycle", perfect, "%d cycles", cycles)
	res.check("execution unaffected by watchdog reports", vc.JobStatus().Failed == 0,
		"failed ranks: %d", vc.JobStatus().Failed)
	return res
}

func rangeStr(lo, hi int) string {
	if lo == hi {
		return strconv.Itoa(lo)
	}
	return strconv.Itoa(lo) + ".." + strconv.Itoa(hi)
}
