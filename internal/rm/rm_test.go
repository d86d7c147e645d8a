package rm

import (
	"testing"

	"dvc/internal/core"
	"dvc/internal/netsim"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/workload"
)

type bed struct {
	k    *sim.Kernel
	site *phys.Site
	rm   *RM
}

func newBed(t *testing.T, seed int64, nodes int, cfg Config) *bed {
	t.Helper()
	k := sim.NewKernel(seed)
	site := phys.DefaultSite(k)
	site.AddCluster("alpha", nodes, phys.DefaultSpec(), netsim.EthernetGigE())
	site.NTP.Start()
	var mgr *core.Manager
	var coord *core.Coordinator
	if cfg.Backend == DVC {
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		env := core.NewEnv(site, lsc)
		mgr, coord = env.Manager, env.Coord
	}
	r := New(k, site, mgr, coord, cfg)
	r.Start()
	return &bed{k: k, site: site, rm: r}
}

func (b *bed) runUntilDone(t *testing.T, limit sim.Time) {
	t.Helper()
	deadline := b.k.Now() + limit
	for b.k.Now() < deadline {
		if b.rm.AllDone() {
			return
		}
		b.k.RunFor(10 * sim.Second)
	}
	t.Fatalf("jobs not done by %v: %d queued, %d running", limit, len(b.rm.queue), len(b.rm.running))
}

func job(id string, width int, work sim.Time, arrival sim.Time) workload.JobSpec {
	return workload.JobSpec{ID: id, Width: width, Work: work, Arrival: arrival}
}

func TestPhysicalJobRunsToCompletion(t *testing.T) {
	b := newBed(t, 1, 4, DefaultConfig(Physical))
	b.rm.Submit(job("j0", 2, sim.Minute, 0))
	b.runUntilDone(t, sim.Hour)
	s := b.rm.Stats()
	if s.Completed != 1 || s.Failed != 0 {
		t.Fatalf("stats %+v", s)
	}
	j := b.rm.Jobs()[0]
	if j.State != Completed {
		t.Fatalf("job state %v", j.State)
	}
	// A 1-minute BSP job should take roughly a minute.
	run := j.EndAt - j.StartAt
	if run < sim.Minute || run > 2*sim.Minute {
		t.Fatalf("runtime %v for 1m of work", run)
	}
}

func TestSchedulerQueuesWhenFull(t *testing.T) {
	b := newBed(t, 2, 2, DefaultConfig(Physical))
	b.rm.Submit(job("j0", 2, sim.Minute, 0))
	b.rm.Submit(job("j1", 2, sim.Minute, 0))
	b.k.RunFor(30 * sim.Second)
	// Only one can run on 2 nodes.
	if len(b.rm.running) != 1 || len(b.rm.queue) != 1 {
		t.Fatalf("running=%d queued=%d", len(b.rm.running), len(b.rm.queue))
	}
	b.runUntilDone(t, sim.Hour)
	if s := b.rm.Stats(); s.Completed != 2 {
		t.Fatalf("stats %+v", s)
	}
	// The second job waited for the first.
	jobs := b.rm.Jobs()
	if jobs[1].WaitTime() < sim.Minute {
		t.Fatalf("second job waited only %v", jobs[1].WaitTime())
	}
}

func TestBackfillNarrowJobAroundWideOne(t *testing.T) {
	b := newBed(t, 3, 4, DefaultConfig(Physical))
	b.rm.Submit(job("j0", 3, 2*sim.Minute, 0)) // uses 3 of 4
	b.rm.Submit(job("j1", 8, sim.Minute, 0))   // can never fit on 4... wait
	b.rm.Submit(job("j2", 1, sim.Minute, 0))   // fits in the hole
	b.k.RunFor(30 * sim.Second)
	var j2 *Job
	for _, j := range b.rm.Jobs() {
		if j.Spec.ID == "job-j2" || j.Spec.ID == "j2" {
			j2 = j
		}
	}
	if j2 == nil || (j2.State != Running && j2.State != Completed) {
		t.Fatalf("narrow job not backfilled: %+v", j2)
	}
}

func TestPhysicalNodeCrashRequeuesFromScratch(t *testing.T) {
	cfg := DefaultConfig(Physical)
	b := newBed(t, 4, 3, cfg)
	b.rm.Submit(job("j0", 2, 5*sim.Minute, 0))
	b.k.RunFor(2 * sim.Minute)
	// Crash one of the job's nodes.
	j := b.rm.Jobs()[0]
	if j.State != Running {
		t.Fatalf("job state %v before crash", j.State)
	}
	j.nodes[0].Fail()
	b.runUntilDone(t, 2*sim.Hour)
	s := b.rm.Stats()
	if s.Completed != 1 {
		t.Fatalf("stats %+v", s)
	}
	if j.Attempt < 2 {
		t.Fatalf("job not requeued: attempt %d", j.Attempt)
	}
	// The whole first attempt's progress was lost.
	if j.WastedTime < sim.Minute {
		t.Fatalf("wasted time %v, want >= 1m", j.WastedTime)
	}
}

func TestPhysicalCrashWithoutRequeueFails(t *testing.T) {
	cfg := DefaultConfig(Physical)
	cfg.RequeueOnFailure = false
	b := newBed(t, 5, 3, cfg)
	b.rm.Submit(job("j0", 2, 5*sim.Minute, 0))
	b.k.RunFor(2 * sim.Minute)
	b.rm.Jobs()[0].nodes[0].Fail()
	b.runUntilDone(t, sim.Hour)
	if s := b.rm.Stats(); s.Failed != 1 || s.Completed != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDVCJobRunsToCompletion(t *testing.T) {
	b := newBed(t, 6, 4, DefaultConfig(DVC))
	b.rm.Submit(job("j0", 2, 2*sim.Minute, 0))
	b.runUntilDone(t, 2*sim.Hour)
	if s := b.rm.Stats(); s.Completed != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDVCCrashRecoversFromCheckpoint(t *testing.T) {
	cfg := DefaultConfig(DVC)
	cfg.CheckpointInterval = sim.Minute
	b := newBed(t, 7, 5, cfg)
	b.rm.Submit(job("j0", 2, 10*sim.Minute, 0))
	// Let it run past a couple of checkpoints.
	b.k.RunFor(5 * sim.Minute)
	j := b.rm.Jobs()[0]
	if j.State != Running || j.lastGoodGen < 0 {
		t.Fatalf("job state %v gen %d; want running with a checkpoint", j.State, j.lastGoodGen)
	}
	progressBefore := j.lastCkptAt
	j.nodes[0].Fail()
	b.runUntilDone(t, 3*sim.Hour)
	s := b.rm.Stats()
	if s.Completed != 1 {
		t.Fatalf("stats %+v", s)
	}
	if j.Attempt != 1 {
		t.Fatalf("DVC recovery should not requeue (attempt %d)", j.Attempt)
	}
	// Lost work bounded by the checkpoint interval-ish, not the whole run.
	if j.WastedTime > 4*sim.Minute {
		t.Fatalf("wasted %v despite checkpointing", j.WastedTime)
	}
	_ = progressBefore
}

func TestDVCWastesLessThanPhysicalUnderFaults(t *testing.T) {
	run := func(backend Backend) Stats {
		cfg := DefaultConfig(backend)
		cfg.CheckpointInterval = sim.Minute
		b := newBed(t, 8, 6, cfg)
		b.rm.Submit(job("j0", 3, 15*sim.Minute, 0))
		// Crash one hosting node mid-run.
		b.k.RunFor(7 * sim.Minute)
		j := b.rm.Jobs()[0]
		if j.State == Running && len(j.nodes) > 0 {
			j.nodes[0].Fail()
		}
		b.runUntilDone(t, 5*sim.Hour)
		return b.rm.Stats()
	}
	phys := run(Physical)
	dvc := run(DVC)
	if phys.Completed != 1 || dvc.Completed != 1 {
		t.Fatalf("phys %+v dvc %+v", phys, dvc)
	}
	if dvc.TotalWasted >= phys.TotalWasted {
		t.Fatalf("DVC wasted %v, physical wasted %v; DVC should lose less", dvc.TotalWasted, phys.TotalWasted)
	}
}

func TestTraceSubmission(t *testing.T) {
	b := newBed(t, 9, 8, DefaultConfig(Physical))
	trace := []workload.JobSpec{
		job("j0", 2, sim.Minute, 10*sim.Second),
		job("j1", 4, sim.Minute, 20*sim.Second),
		job("j2", 1, sim.Minute, 30*sim.Second),
	}
	b.rm.SubmitTrace(trace)
	b.runUntilDone(t, sim.Hour)
	if s := b.rm.Stats(); s.Completed != 3 {
		t.Fatalf("stats %+v", s)
	}
	for _, j := range b.rm.Jobs() {
		if j.SubmitAt < 10*sim.Second {
			t.Fatalf("job submitted before its arrival: %v", j.SubmitAt)
		}
	}
}

func TestGeneratedMixCompletes(t *testing.T) {
	b := newBed(t, 10, 8, DefaultConfig(Physical))
	cfg := workload.MixConfig{
		Count:       8,
		ArrivalMean: 20 * sim.Second,
		Widths:      []int{1, 2, 4},
		WorkMin:     30 * sim.Second,
		WorkMax:     2 * sim.Minute,
	}
	trace := workload.Generate(b.k.Rand(), cfg)
	if len(trace) != 8 {
		t.Fatalf("trace size %d", len(trace))
	}
	b.rm.SubmitTrace(trace)
	b.runUntilDone(t, 4*sim.Hour)
	if s := b.rm.Stats(); s.Completed != 8 || s.Failed != 0 || s.BusyNodeTime <= 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBackendStrings(t *testing.T) {
	if Physical.String() != "physical" || DVC.String() != "dvc" {
		t.Fatal("backend strings")
	}
	if Queued.String() != "Queued" || Failed.String() != "Failed" {
		t.Fatal("state strings")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	b := newBed(t, 11, 4, DefaultConfig(Physical))
	b.rm.Submit(job("j0", 2, 2*sim.Minute, 0))
	b.runUntilDone(t, sim.Hour)
	s := b.rm.Stats()
	// 2 nodes busy for ~2 minutes on a 4-node site.
	if s.BusyNodeTime < 3*sim.Minute || s.BusyNodeTime > 6*sim.Minute {
		t.Fatalf("busy node-time %v, want ~4m", s.BusyNodeTime)
	}
	util := s.Utilization(4, s.Makespan)
	if util < 0.3 || util > 0.7 {
		t.Fatalf("utilization %.2f, want ~0.5", util)
	}
	if got := (Stats{}).Utilization(0, 0); got != 0 {
		t.Fatalf("degenerate utilization %v", got)
	}
}

func TestUtilizationIncludesRunningJobs(t *testing.T) {
	b := newBed(t, 12, 4, DefaultConfig(Physical))
	b.rm.Submit(job("j0", 4, 10*sim.Minute, 0))
	b.k.RunFor(5 * sim.Minute)
	s := b.rm.Stats()
	if s.BusyNodeTime < 15*sim.Minute {
		t.Fatalf("mid-run busy node-time %v, want ~20m", s.BusyNodeTime)
	}
}

func TestStackMatchingPhysical(t *testing.T) {
	b := newBed(t, 13, 4, DefaultConfig(Physical))
	b.site.SetClusterStack("alpha", "rhel4-mpich")
	// A job built for a different stack cannot run natively anywhere.
	spec := job("j0", 2, sim.Minute, 0)
	spec.Stack = "suse9-lam"
	b.rm.Submit(spec)
	// A matching job runs fine.
	ok := job("j1", 2, sim.Minute, 0)
	ok.Stack = "rhel4-mpich"
	b.rm.Submit(ok)
	b.k.RunFor(5 * sim.Minute)
	jobs := b.rm.Jobs()
	var mismatched, matched *Job
	for _, j := range jobs {
		if j.Spec.ID == "j0" {
			mismatched = j
		} else {
			matched = j
		}
	}
	if mismatched.State != Queued {
		t.Fatalf("mismatched-stack job state %v, want permanently Queued", mismatched.State)
	}
	if matched.State != Completed {
		t.Fatalf("matching-stack job state %v", matched.State)
	}
}

func TestStackIgnoredUnderDVC(t *testing.T) {
	// The same mismatched job runs under DVC: the VM carries its stack.
	b := newBed(t, 14, 4, DefaultConfig(DVC))
	b.site.SetClusterStack("alpha", "rhel4-mpich")
	spec := job("j0", 2, sim.Minute, 0)
	spec.Stack = "suse9-lam"
	b.rm.Submit(spec)
	b.runUntilDone(t, 2*sim.Hour)
	if s := b.rm.Stats(); s.Completed != 1 {
		t.Fatalf("DVC did not run the foreign-stack job: %+v", s)
	}
}
