package dvc

import (
	"bytes"
	"testing"

	"dvc/internal/obs"
)

func TestQuickstartFlow(t *testing.T) {
	s := NewSimulation(42)
	s.AddCluster("alpha", 8)
	s.Start()
	vc := s.MustAllocate(VCSpec{Name: "job1", Nodes: 4, VMRAM: 256 << 20})
	if _, err := vc.LaunchMPI(6000, func(rank int) App { return NewHPL(96, 7, 1e-5) }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(2 * Second)
	res := s.MustCheckpoint(vc)
	if res.SaveSkew > 50*Millisecond {
		t.Fatalf("NTP skew %v", res.SaveSkew)
	}
	js := s.RunUntilJobDone(vc, 2*Hour)
	if !js.AllOK() {
		t.Fatalf("job status %+v", js)
	}
}

// TestNewTracerStreamsJSONL: the facade tracer streams a traced
// checkpoint to its writer as JSONL, readable once flushed.
func TestNewTracerStreamsJSONL(t *testing.T) {
	var w bytes.Buffer
	tr := NewTracer(&w)
	s := NewSimulation(42)
	s.SetTracer(tr)
	s.AddCluster("alpha", 2)
	s.Start()
	vc := s.MustAllocate(VCSpec{Name: "j", Nodes: 2, VMRAM: 256 << 20})
	vc.LaunchMPI(6000, func(int) App { return NewHalo(600, 20*Millisecond, 1024) })
	s.RunFor(Second)
	s.MustCheckpoint(vc)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	epochs := 0
	err := obs.DecodeJSONL(&w, func(r *obs.Record) error {
		if r.Type == obs.EvLSCEpoch {
			epochs++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if epochs == 0 {
		t.Fatalf("trace of %d records has no lsc.epoch record", tr.Len())
	}
}

func TestNaiveCoordinatorAvailable(t *testing.T) {
	s := NewSimulation(1)
	s.AddCluster("alpha", 2)
	s.Start()
	s.SetLSC(NaiveLSC())
	vc := s.MustAllocate(VCSpec{Name: "j", Nodes: 2, VMRAM: 256 << 20})
	vc.LaunchMPI(6000, func(int) App { return NewHalo(600, 20*Millisecond, 1024) })
	s.RunFor(Second)
	res := s.MustCheckpoint(vc)
	if res.SaveSkew < 100*Millisecond {
		t.Fatalf("naive skew %v suspiciously tight", res.SaveSkew)
	}
}

func TestMigrationFlow(t *testing.T) {
	s := NewSimulation(2)
	s.AddCluster("alpha", 3)
	s.AddCluster("beta", 3)
	s.Start()
	vc := s.MustAllocate(VCSpec{Name: "m", Nodes: 3, VMRAM: 256 << 20, Clusters: []string{"alpha"}})
	vc.LaunchMPI(6000, func(int) App { return NewHalo(3000, 20*Millisecond, 1024) })
	s.RunFor(Second)
	res, err := s.Migrate(vc, s.FreeNodes("beta"))
	if err != nil || !res.OK {
		t.Fatalf("migrate: %v, %+v", err, res)
	}
	for _, n := range vc.PhysicalNodes() {
		if n.Cluster() != "beta" {
			t.Fatal("VC not on beta after migration")
		}
	}
	if !s.RunUntilJobDone(vc, Hour).AllOK() {
		t.Fatal("job failed after migration")
	}
}

func TestLiveMigrationFlow(t *testing.T) {
	s := NewSimulation(9)
	s.AddCluster("alpha", 2)
	s.AddCluster("beta", 2)
	s.Start()
	vc := s.MustAllocate(VCSpec{Name: "lm", Nodes: 2, VMRAM: 256 << 20, Clusters: []string{"alpha"}})
	vc.LaunchMPI(6000, func(int) App { return NewHalo(5000, 20*Millisecond, 1024) })
	s.RunFor(Second)
	for _, d := range vc.Domains() {
		d.SetDirtyRate(10e6)
	}
	res, err := s.LiveMigrate(vc, s.FreeNodes("beta"))
	if err != nil || !res.OK {
		t.Fatalf("live migrate: %v %+v", err, res)
	}
	if res.Downtime > Second {
		t.Fatalf("live downtime %v", res.Downtime)
	}
	if !s.RunUntilJobDone(vc, Hour).AllOK() {
		t.Fatal("job failed after live migration")
	}
}

func TestCrashRecoveryFlow(t *testing.T) {
	s := NewSimulation(3)
	s.AddCluster("alpha", 6)
	s.Start()
	cfg := NTPLSC()
	cfg.ContinueAfterSave = true
	s.SetLSC(cfg)
	vc := s.MustAllocate(VCSpec{Name: "r", Nodes: 3, VMRAM: 256 << 20})
	vc.LaunchMPI(6000, func(int) App { return NewHalo(4000, 20*Millisecond, 1024) })
	s.RunFor(Second)
	ck := s.MustCheckpoint(vc)

	// Kill a hosting node, tear down, recover on fresh nodes.
	vc.PhysicalNodes()[0].Fail()
	s.RunFor(5 * Second)
	vc.Teardown()
	rr, err := s.Recover(vc, ck.Generation, s.FreeNodes("alpha")[:3])
	if err != nil || !rr.OK {
		t.Fatalf("recover: %v, %+v", err, rr)
	}
	if !s.RunUntilJobDone(vc, Hour).AllOK() {
		t.Fatal("job failed after recovery")
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 19 { // E1-E15, ablations A1-A2, SCALE, PSCALE
		t.Fatalf("got %d experiments", len(ids))
	}
	if ExperimentTitle("E1") == "" {
		t.Fatal("E1 has no title")
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTCPRetryBudget(t *testing.T) {
	if b := TCPRetryBudget(); b != 6200*Millisecond {
		t.Fatalf("budget %v", b)
	}
}

func TestAllocateFailsWithoutCapacity(t *testing.T) {
	s := NewSimulation(4)
	s.AddCluster("alpha", 2)
	s.Start()
	if _, err := s.Allocate(VCSpec{Name: "big", Nodes: 5, VMRAM: 256 << 20}); err == nil {
		t.Fatal("impossible allocation accepted")
	}
}

func TestCheckpointCatalogFacade(t *testing.T) {
	s := NewSimulation(71)
	s.AddCluster("alpha", 3)
	s.Start()
	cfg := NTPLSC()
	cfg.ContinueAfterSave = true
	s.SetLSC(cfg)
	vc := s.MustAllocate(VCSpec{Name: "cat", Nodes: 2, VMRAM: 256 << 20})
	vc.LaunchMPI(6000, func(int) App { return NewHalo(8000, 20*Millisecond, 512) })
	s.RunFor(Second)
	for i := 0; i < 3; i++ {
		s.MustCheckpoint(vc)
		s.RunFor(2 * Second)
	}
	if gens := s.CheckpointGenerations(vc); len(gens) != 3 {
		t.Fatalf("generations %v", gens)
	}
	if deleted := s.PruneCheckpoints(vc, 1); deleted != 4 { // 2 gens x 2 domains
		t.Fatalf("pruned %d objects", deleted)
	}
	if gens := s.CheckpointGenerations(vc); len(gens) != 1 || gens[0] != 2 {
		t.Fatalf("after prune: %v", gens)
	}
}
