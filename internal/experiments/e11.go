package experiments

import (
	"dvc/internal/core"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
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

	type migOut struct {
		downtime sim.Time
		ok       bool
	}
	migrate := func(n int, seed int64) migOut {
		lsc := core.DefaultNTPLSC()
		b := newBed(seed, map[string]int{"alpha": n, "beta": n}, lsc, true)
		vc, err := b.Manager.Allocate(core.VCSpec{Name: "mig", Nodes: n, VMRAM: vmRAM, Clusters: []string{"alpha"}}, nil)
		if err != nil {
			panic(err)
		}
		b.Kernel.RunFor(30 * sim.Second)
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(4000, 20*sim.Millisecond, 2048) })
		b.Kernel.RunFor(2 * sim.Second)
		r, err := b.Migrate(vc, b.Site.UpNodes("beta"), 30*sim.Minute)
		out := migOut{}
		if err != nil || !r.OK {
			return out
		}
		onBeta := true
		for _, node := range vc.PhysicalNodes() {
			if node.Cluster() != "beta" {
				onBeta = false
			}
		}
		js := b.RunUntilJobDone(vc, 2*sim.Hour)
		out.ok = onBeta && js.AllOK()
		out.downtime = r.Downtime
		tbl.Row(n, r.SaveSkew, r.StoreTime, "-", r.Downtime, outcomeStr(out.ok))
		return out
	}

	sizes := []int{2, 4, 8}
	if opts.Full {
		sizes = append(sizes, 16)
	}
	outs := map[int]migOut{}
	for _, n := range sizes {
		outs[n] = migrate(n, opts.Seed+int64(n))
	}

	// Proactive fault avoidance: a predicted fault triggers migration;
	// the node then dies, and the job never notices.
	proactive := func(seed int64) bool {
		lsc := core.DefaultNTPLSC()
		b := newBed(seed, map[string]int{"alpha": 4, "beta": 4}, lsc, true)
		vc, err := b.Manager.Allocate(core.VCSpec{Name: "pro", Nodes: 4, VMRAM: vmRAM, Clusters: []string{"alpha"}}, nil)
		if err != nil {
			panic(err)
		}
		b.Kernel.RunFor(30 * sim.Second)
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(4000, 20*sim.Millisecond, 2048) })
		b.Kernel.RunFor(2 * sim.Second)

		// Fault predictor fires: alpha-n00 will die in 60 s — enough
		// lead time for the migration (downtime ~13 s) to finish first,
		// while the ~90 s job is still running when the node dies.
		doomed, _ := b.Site.Node("alpha-n00")
		b.Kernel.After(60*sim.Second, func() { doomed.Fail() })
		var r *core.CheckpointResult
		b.Coord.Migrate(vc, b.Site.UpNodes("beta"), func(cr *core.CheckpointResult) { r = cr })
		js := b.RunUntilJobDone(vc, 2*sim.Hour)
		if r == nil || !r.OK || !js.AllOK() {
			return false
		}
		for _, app := range vc.RankApps() {
			if h, ok := app.(*hpcc.Halo); !ok || !h.Finished {
				return false
			}
		}
		return !doomed.Up() // the fault did happen; the job survived it
	}
	proOK := proactive(opts.Seed + 777)
	tbl.Row("4 (proactive)", "-", "-", "-", "-", outcomeStr(proOK))
	res.table(tbl, opts.out())

	// AND-reduction over the outcome set. Writing only the constant
	// `false` keeps the loop order-independent (dvclint: mapiter).
	allOK := proOK
	for _, o := range outs {
		if !o.ok {
			allOK = false
		}
	}
	res.check("every migration lands on the target cluster and the job completes", allOK, "")
	res.check("downtime grows with VC size (shared store is the bottleneck)",
		outs[8].downtime > outs[2].downtime,
		"8 VMs: %v vs 2 VMs: %v", outs[8].downtime, outs[2].downtime)
	res.check("proactive migration hides a predicted fault", proOK, "")
	return res
}

func outcomeStr(ok bool) string {
	if ok {
		return "completed"
	}
	return "FAILED"
}
