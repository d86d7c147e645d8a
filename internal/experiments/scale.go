package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/metrics"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
)

func init() {
	register("SCALE", "Substrate scale: E2-shaped workload on generated multi-DC topologies", runScaleExp)
}

// ScaleSpec sizes one scale run's generated topology (phys.BuildTopo).
type ScaleSpec = phys.TopoSpec

// scaleVMs is the width of the E2-shaped job every scale run places, the
// E2 bench shape. The job is deliberately fixed-size while the substrate
// grows: flat ns/event across ScaleSpecs is the evidence that idle
// substrate is (nearly) free.
const scaleVMs = 8

// ScaleResult reports one scale run.
type ScaleResult struct {
	Nodes    int
	Clusters int
	// Events is the total kernel events fired by the run — the
	// denominator for wall-clock ns/event (the caller times the run;
	// simulation code never reads the wall clock).
	Events       uint64
	CheckpointOK bool
	JobOK        bool
	SaveSkew     sim.Time
}

// OK reports whether the checkpoint and the job both succeeded.
func (r *ScaleResult) OK() bool { return r.CheckpointOK && r.JobOK }

// RunScale generates the topology and drives the E2-shaped workload over
// it end-to-end: boot a fixed-width VC, run a halo-exchange MPI job,
// checkpoint once mid-run, restore-verify implicitly by running the job
// to completion. Same seed + same spec is byte-identical (trace it to
// prove it); tr may be nil.
func RunScale(seed int64, spec ScaleSpec, tr *obs.Tracer) (*ScaleResult, error) {
	k := sim.NewKernel(seed)
	site := phys.DefaultSite(k)
	clusters, err := phys.BuildTopo(site, spec)
	if err != nil {
		return nil, err
	}
	site.NTP.Start()
	b := &bed{core.NewEnv(site, core.DefaultNTPLSC())}
	b.SetTracer(tr)
	t, err := b.runTrial("scale", scaleVMs, halo(600))
	if err != nil {
		return nil, fmt.Errorf("experiments: scale run on %s: %w", spec, err)
	}
	return &ScaleResult{
		Nodes:        spec.Nodes(),
		Clusters:     len(clusters),
		Events:       k.Fired(),
		CheckpointOK: t.imagesOK,
		JobOK:        t.ok,
		SaveSkew:     t.ckpt.SaveSkew,
	}, nil
}

// runScaleExp is the registry wrapper: the 26- and 260-node shapes by
// default, plus the 2600-node (10 DC x 10 cluster x 26 host) shape with
// -full. The job stays 8 wide throughout; the checks assert the substrate
// scales without disturbing the workload.
func runScaleExp(opts Options) *Result {
	res := &Result{}
	shapes := []ScaleSpec{
		{DCs: 1, ClustersPerDC: 1, HostsPerCluster: 26},
		{DCs: 1, ClustersPerDC: 10, HostsPerCluster: 26},
	}
	if opts.Full {
		shapes = append(shapes, ScaleSpec{DCs: 10, ClustersPerDC: 10, HostsPerCluster: 26})
	}
	tbl := metrics.NewTable("SCALE: fixed 8-VM LSC job on growing substrate",
		"topology", "nodes", "clusters", "events", "skew.ms", "ckpt", "job")
	type run struct {
		r   *ScaleResult
		err error
	}
	runs := sweep(opts, shapes, 1, func(sp ScaleSpec, _ int, tr *obs.Tracer) run {
		r, err := RunScale(opts.Seed, sp, tr)
		return run{r, err}
	})
	for i, sp := range shapes {
		r, err := runs[i][0].r, runs[i][0].err
		if err != nil {
			res.check(fmt.Sprintf("%s runs", sp), false, "%v", err)
			continue
		}
		tbl.Row(sp.String(), r.Nodes, r.Clusters, r.Events,
			fmt.Sprintf("%.2f", r.SaveSkew.Seconds()*1000), r.CheckpointOK, r.JobOK)
		res.check(fmt.Sprintf("%s save+restore transparent", sp), r.OK(),
			"ckpt=%v job=%v at %d nodes", r.CheckpointOK, r.JobOK, r.Nodes)
	}
	res.table(tbl, opts.out())
	return res
}
