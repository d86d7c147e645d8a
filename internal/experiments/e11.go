package experiments

import (
	"dvc/internal/core"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/obs"
	"dvc/internal/sim"
)

func init() {
	register("E11", "Parallel migration of running virtual clusters (§4)", runE11)
}

// runE11 implements §4's next step — "Extending LSC to enable parallel
// migration" — and measures it: a running VC is checkpointed, its images
// staged, and the whole cluster restored on a different set of physical
// nodes. The proactive case migrates away from a predicted fault before
// it happens, so the job never sees the crash.
func runE11(opts Options) *Result {
	res := &Result{}

	tbl := metrics.NewTable("E11: whole-VC migration (VM RAM 256 MiB, shared store 200 MB/s)",
		"VC size", "save skew", "store", "stage", "downtime", "job outcome")

	// One cell per VC size, plus the proactive run: a predicted fault
	// triggers migration; the node then dies, and the job never notices.
	sizes := []int{2, 4, 8}
	if opts.Full {
		sizes = append(sizes, 16)
	}
	const proactive = 0
	type migOut struct {
		moved             bool // the migration committed
		skew, store, down sim.Time
		ok                bool // the job outcome
	}
	outs := sweep(opts, append(sizes, proactive), 1, func(n, _ int, _ *obs.Tracer) migOut {
		app := func(int) mpi.App { return hpcc.NewHalo(4000, 20*sim.Millisecond, 2048) }
		if n == proactive {
			b, vc := migrationBed(opts.Seed+777, "pro", 4, app, 2*sim.Second)
			// Fault predictor fires: alpha-n00 will die in 60 s — enough
			// lead time for the migration (downtime ~13 s) to finish
			// first, while the ~90 s job is still running when the node
			// dies.
			doomed, _ := b.Site.Node("alpha-n00")
			b.Kernel.After(60*sim.Second, func() { doomed.Fail() })
			var r *core.CheckpointResult
			b.Coord.Migrate(vc, b.Site.UpNodes("beta"), func(cr *core.CheckpointResult) { r = cr })
			js := b.RunUntilJobDone(vc, 2*sim.Hour)
			if r == nil || !r.OK || !js.AllOK() {
				return migOut{}
			}
			for _, app := range vc.RankApps() {
				if h, ok := app.(*hpcc.Halo); !ok || !h.Finished {
					return migOut{}
				}
			}
			return migOut{ok: !doomed.Up()} // the fault did happen; the job survived it
		}
		b, vc := migrationBed(opts.Seed+int64(n), "mig", n, app, 2*sim.Second)
		r, err := b.Migrate(vc, b.Site.UpNodes("beta"), 30*sim.Minute)
		if err != nil || !r.OK {
			return migOut{}
		}
		onBeta := true
		for _, node := range vc.PhysicalNodes() {
			if node.Cluster() != "beta" {
				onBeta = false
			}
		}
		js := b.RunUntilJobDone(vc, 2*sim.Hour)
		return migOut{moved: true, skew: r.SaveSkew, store: r.StoreTime, down: r.Downtime, ok: onBeta && js.AllOK()}
	})
	allOK := true
	downtime := map[int]sim.Time{}
	for i, n := range sizes {
		o := outs[i][0]
		if o.moved {
			tbl.Row(n, o.skew, o.store, "-", o.down, outcomeStr(o.ok))
		}
		downtime[n] = o.down
		allOK = allOK && o.ok
	}
	proOK := outs[len(sizes)][0].ok
	tbl.Row("4 (proactive)", "-", "-", "-", "-", outcomeStr(proOK))
	res.table(tbl, opts.out())

	res.check("every migration lands on the target cluster and the job completes", allOK && proOK, "")
	res.check("downtime grows with VC size (shared store is the bottleneck)",
		downtime[8] > downtime[2],
		"8 VMs: %v vs 2 VMs: %v", downtime[8], downtime[2])
	res.check("proactive migration hides a predicted fault", proOK, "")
	return res
}

func outcomeStr(ok bool) string {
	if ok {
		return "completed"
	}
	return "FAILED"
}
