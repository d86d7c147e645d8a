package dvc

import (
	"math/rand"
	"testing"

	"dvc/internal/rm"
	"dvc/internal/workload"
)

// The resource manager over a Simulation's site: the Torque/Moab-style
// batch layer that E8, E9 and E15 drive, installed on the same kernel,
// site, manager and coordinator the package's Simulation builds.

// newRM installs and starts a resource manager over s.
func newRM(s *Simulation, cfg rm.Config) *rm.RM {
	var r *rm.RM
	if cfg.Backend == rm.DVC {
		r = rm.New(s.env.Kernel, s.env.Site, s.env.Manager, s.env.Coord, cfg)
	} else {
		r = rm.New(s.env.Kernel, s.env.Site, nil, nil, cfg)
	}
	r.Start()
	return r
}

// runUntilAllDone advances s until r has finished every submitted job or
// limit elapses, and returns r's statistics.
func runUntilAllDone(s *Simulation, r *rm.RM, limit Time) rm.Stats {
	deadline := s.Now() + limit
	for s.Now() < deadline && !r.AllDone() {
		s.RunFor(10 * Second)
	}
	return r.Stats()
}

func TestResourceManagerFacadePhysical(t *testing.T) {
	s := NewSimulation(61)
	s.AddCluster("alpha", 6)
	s.Start()
	r := newRM(s, rm.DefaultConfig(rm.Physical))
	trace := workload.Generate(s.env.Kernel.Rand(), workload.MixConfig{
		Count:       5,
		ArrivalMean: 20 * Second,
		Widths:      []int{1, 2},
		WorkMin:     30 * Second,
		WorkMax:     2 * Minute,
	})
	r.SubmitTrace(trace)
	stats := runUntilAllDone(s, r, 4*Hour)
	if stats.Completed != 5 || stats.Failed != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.BusyNodeTime <= 0 {
		t.Fatal("no busy node-time accounted")
	}
}

func TestResourceManagerFacadeDVCWithFaults(t *testing.T) {
	s := NewSimulation(62)
	s.AddCluster("alpha", 6)
	s.Start()
	cfg := NTPLSC()
	cfg.ContinueAfterSave = true
	s.SetLSC(cfg)
	rmCfg := rm.DefaultConfig(rm.DVC)
	rmCfg.CheckpointInterval = Minute
	r := newRM(s, rmCfg)
	r.Submit(workload.JobSpec{ID: "j0", Width: 2, Work: 6 * Minute})
	// Crash a node mid-run; the RM recovers from the checkpoint.
	s.RunFor(3 * Minute)
	s.Site().UpNodes("alpha")[0].Fail()
	stats := runUntilAllDone(s, r, 6*Hour)
	if stats.Completed != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestTraceIOFacade(t *testing.T) {
	mix := workload.MixConfig{
		Count: 4, ArrivalMean: 10 * Second,
		Widths: []int{1}, WorkMin: Minute, WorkMax: 2 * Minute,
	}
	trace := workload.Generate(rand.New(rand.NewSource(9)), mix)
	if len(trace) != 4 {
		t.Fatalf("generated %d jobs, want 4", len(trace))
	}
	// Seeded generation is reproducible.
	again := workload.Generate(rand.New(rand.NewSource(9)), mix)
	for i := range trace {
		if trace[i] != again[i] {
			t.Fatal("seeded trace not reproducible")
		}
	}
}
