package dvc

import "testing"

func TestResourceManagerFacadePhysical(t *testing.T) {
	s := NewSimulation(61)
	s.AddCluster("alpha", 6)
	s.Start()
	r := s.NewResourceManager(DefaultRMConfig(PhysicalBackend))
	trace := s.GenerateTrace(MixConfig{
		Count:       5,
		ArrivalMean: 20 * Second,
		Widths:      []int{1, 2},
		WorkMin:     30 * Second,
		WorkMax:     2 * Minute,
	})
	r.SubmitTrace(trace)
	stats := r.RunUntilAllDone(4 * Hour)
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
	rmCfg := DefaultRMConfig(DVCBackend)
	rmCfg.CheckpointInterval = Minute
	r := s.NewResourceManager(rmCfg)
	r.Submit(JobSpec{ID: "j0", Width: 2, Work: 6 * Minute})
	// Crash a node mid-run; the RM recovers from the checkpoint.
	s.RunFor(3 * Minute)
	s.Site().UpNodes("alpha")[0].Fail()
	stats := r.RunUntilAllDone(6 * Hour)
	if stats.Completed != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestTraceIOFacade(t *testing.T) {
	trace := GenerateTraceSeeded(9, MixConfig{
		Count: 4, ArrivalMean: 10 * Second,
		Widths: []int{1}, WorkMin: Minute, WorkMax: 2 * Minute,
	})
	if len(trace) != 4 {
		t.Fatalf("generated %d jobs, want 4", len(trace))
	}
	// Seeded generation is reproducible.
	again := GenerateTraceSeeded(9, MixConfig{
		Count: 4, ArrivalMean: 10 * Second,
		Widths: []int{1}, WorkMin: Minute, WorkMax: 2 * Minute,
	})
	for i := range trace {
		if trace[i] != again[i] {
			t.Fatal("seeded trace not reproducible")
		}
	}
}
