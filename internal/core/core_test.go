package core

import (
	"testing"

	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/storage"
	"dvc/internal/vm"
)

const testVMRAM = 256 << 20

type testbed struct {
	k     *sim.Kernel
	site  *phys.Site
	store *storage.Store
	mgr   *Manager
	co    *Coordinator
}

func newTestbed(t *testing.T, seed int64, clusters map[string]int, lsc LSCConfig) *testbed {
	t.Helper()
	k := sim.NewKernel(seed)
	site := phys.DefaultSite(k)
	// Deterministic cluster creation order.
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if n, ok := clusters[name]; ok {
			site.AddCluster(name, n, phys.DefaultSpec(), netsim.EthernetGigE())
		}
	}
	site.NTP.Start()
	e := NewEnv(site, lsc)
	return &testbed{k: k, site: site, store: e.Manager.Store(), mgr: e.Manager, co: e.Coord}
}

// allocate boots a VC and runs until it is ready.
func (tb *testbed) allocate(t *testing.T, name string, nodes int, wd guest.WatchdogConfig) *VirtualCluster {
	t.Helper()
	vc, err := tb.mgr.Allocate(VCSpec{Name: name, Nodes: nodes, VMRAM: testVMRAM, Watchdog: wd}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(vm.DefaultXenConfig().BootTime + sim.Second)
	if vc.State() != VCReady {
		t.Fatalf("VC state %v after boot window", vc.State())
	}
	return vc
}

// runJob drives the sim until the VC's job finishes (or the limit hits).
func (tb *testbed) runJob(t *testing.T, vc *VirtualCluster, limit sim.Time) JobStatus {
	t.Helper()
	deadline := tb.k.Now() + limit
	for tb.k.Now() < deadline {
		js := vc.JobStatus()
		if js.Done() && vc.State() == VCReady {
			return js
		}
		tb.k.RunFor(sim.Second)
	}
	return vc.JobStatus()
}

func TestAllocateBootsVirtualCluster(t *testing.T) {
	tb := newTestbed(t, 1, map[string]int{"alpha": 4}, DefaultNTPLSC())
	vc := tb.allocate(t, "job1", 4, guest.WatchdogConfig{})
	if len(vc.Domains()) != 4 {
		t.Fatalf("%d domains", len(vc.Domains()))
	}
	for i, d := range vc.Domains() {
		if d.State() != vm.StateRunning {
			t.Fatalf("domain %d state %v", i, d.State())
		}
		if addr := d.OS().Stack().Addr(); addr != vc.DomainAddr(i) {
			t.Fatalf("domain %d addr %s", i, addr)
		}
	}
	if spansClusters(vc) {
		t.Fatal("4 VMs on an 4-node cluster should not span")
	}
}

// spansClusters reports whether a VC's placement crosses physical
// clusters.
func spansClusters(vc *VirtualCluster) bool {
	for _, n := range vc.PhysicalNodes() {
		if n.Cluster() != vc.PhysicalNodes()[0].Cluster() {
			return true
		}
	}
	return false
}

func TestAllocateSpansClustersWhenNeeded(t *testing.T) {
	tb := newTestbed(t, 2, map[string]int{"alpha": 3, "beta": 3}, DefaultNTPLSC())
	vc := tb.allocate(t, "wide", 5, guest.WatchdogConfig{})
	if !spansClusters(vc) {
		t.Fatal("5-node VC over two 3-node clusters must span")
	}
}

func TestPlaceFailsWhenInsufficient(t *testing.T) {
	tb := newTestbed(t, 3, map[string]int{"alpha": 2}, DefaultNTPLSC())
	if _, err := tb.mgr.Place(VCSpec{Name: "big", Nodes: 5, VMRAM: testVMRAM}); err == nil {
		t.Fatal("impossible placement accepted")
	}
}

func TestDuplicateVCNameRejected(t *testing.T) {
	tb := newTestbed(t, 4, map[string]int{"alpha": 4}, DefaultNTPLSC())
	tb.allocate(t, "dup", 2, guest.WatchdogConfig{})
	if _, err := tb.mgr.Allocate(VCSpec{Name: "dup", Nodes: 1, VMRAM: testVMRAM}, nil); err == nil {
		t.Fatal("duplicate VC name accepted")
	}
}

func TestPTRANSRunsOnVirtualCluster(t *testing.T) {
	tb := newTestbed(t, 5, map[string]int{"alpha": 4}, DefaultNTPLSC())
	vc := tb.allocate(t, "pt", 4, guest.WatchdogConfig{})
	if _, err := vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewPTRANS(24, 99, 3, 10) }); err != nil {
		t.Fatal(err)
	}
	js := tb.runJob(t, vc, 10*sim.Minute)
	if !js.AllOK() {
		t.Fatalf("job status %+v", js)
	}
	for r, app := range vc.RankApps() {
		pt := app.(*hpcc.PTRANS)
		if !pt.Passed {
			t.Fatalf("rank %d verification failed (maxerr %g)", r, pt.MaxErr)
		}
	}
}

func TestNTPCheckpointCycleIsTransparent(t *testing.T) {
	tb := newTestbed(t, 6, map[string]int{"alpha": 4}, DefaultNTPLSC())
	vc := tb.allocate(t, "ck", 4, guest.WatchdogConfig{})
	// A long-running PTRANS so the checkpoint lands mid-flight.
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewPTRANS(32, 7, 400, 10) })
	tb.k.RunFor(2 * sim.Second) // app is mid-run and communicating

	var res *CheckpointResult
	if err := tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(5 * sim.Minute)
	if res == nil {
		t.Fatal("checkpoint never completed")
	}
	if !res.OK {
		t.Fatalf("checkpoint failed: %s", res.Reason)
	}
	if res.SaveSkew > 50*sim.Millisecond {
		t.Fatalf("NTP save skew %v, want ms-scale", res.SaveSkew)
	}
	if err := InspectImages(res.Images); err != nil {
		t.Fatalf("images damaged: %v", err)
	}
	if res.Downtime <= 0 || res.StoreTime <= 0 {
		t.Fatalf("timings not recorded: %+v", res)
	}
	// The application survives the save/restore cycle and verifies.
	js := tb.runJob(t, vc, 30*sim.Minute)
	if !js.AllOK() {
		t.Fatalf("job after checkpoint: %+v", js)
	}
	for r, app := range vc.RankApps() {
		if !app.(*hpcc.PTRANS).Passed {
			t.Fatalf("rank %d failed verification after restore", r)
		}
	}
}

func TestNaiveCheckpointSmallClusterUsuallyWorks(t *testing.T) {
	tb := newTestbed(t, 7, map[string]int{"alpha": 4}, DefaultNaiveLSC())
	vc := tb.allocate(t, "nv", 4, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewPTRANS(32, 7, 400, 10) })
	tb.k.RunFor(2 * sim.Second)
	var res *CheckpointResult
	tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
	tb.k.RunFor(5 * sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("naive checkpoint of 4 nodes failed: %+v", res)
	}
	if res.SaveSkew < 500*sim.Millisecond {
		t.Fatalf("naive skew %v suspiciously small", res.SaveSkew)
	}
	js := tb.runJob(t, vc, 30*sim.Minute)
	if !js.AllOK() {
		t.Fatalf("job after naive 4-node checkpoint: %+v", js)
	}
}

func TestNaiveCheckpointTwelveNodesKillsJob(t *testing.T) {
	// At 12 nodes the serial dispatch skew exceeds the TCP retry budget
	// and some rank's connection resets (§3.1: ~90% failure).
	failures := 0
	const trials = 5
	for trial := 0; trial < trials; trial++ {
		tb := newTestbed(t, 100+int64(trial), map[string]int{"alpha": 12}, DefaultNaiveLSC())
		vc := tb.allocate(t, "nv12", 12, guest.WatchdogConfig{})
		// A steadily communicating workload (like E1): every rank keeps
		// unacknowledged data toward its neighbours through the whole
		// save window, so skew beyond the retry budget is always fatal.
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(2000, 20*sim.Millisecond, 4096) })
		tb.k.RunFor(2 * sim.Second)
		var res *CheckpointResult
		tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
		tb.k.RunFor(10 * sim.Minute)
		if res == nil {
			t.Fatal("checkpoint never completed")
		}
		js := tb.runJob(t, vc, time60())
		if !js.AllOK() || InspectImages(res.Images) != nil {
			failures++
		}
	}
	if failures < trials/2 {
		t.Fatalf("only %d/%d naive 12-node checkpoints failed; expected most", failures, trials)
	}
}

func time60() sim.Time { return 60 * sim.Minute }

func TestSleeperDeathWithoutHealthCheckFails(t *testing.T) {
	cfg := DefaultNTPLSC()
	cfg.SleeperFailProb = 1.0
	tb := newTestbed(t, 8, map[string]int{"alpha": 3}, cfg)
	vc := tb.allocate(t, "sd", 3, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewPTRANS(24, 7, 1000, 10) })
	tb.k.RunFor(sim.Second)
	var res *CheckpointResult
	tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
	tb.k.RunFor(2 * sim.Minute)
	if res == nil || res.OK {
		t.Fatalf("checkpoint with all sleepers dead should fail: %+v", res)
	}
	if tb.co.FailCount != 1 {
		t.Fatalf("FailCount = %d", tb.co.FailCount)
	}
}

func TestHealthCheckSurvivesSleeperDeath(t *testing.T) {
	cfg := DefaultNTPLSC()
	cfg.SleeperFailProb = 0.4
	cfg.HealthCheck = true
	cfg.HealthRetries = 50
	tb := newTestbed(t, 9, map[string]int{"alpha": 6}, cfg)
	vc := tb.allocate(t, "hc", 6, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewPTRANS(24, 7, 3000, 10) })
	tb.k.RunFor(sim.Second)
	var res *CheckpointResult
	tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
	tb.k.RunFor(10 * sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("health-checked checkpoint failed: %+v", res)
	}
	if res.Attempts < 2 {
		t.Fatalf("expected retries with 40%% sleeper death over 6 nodes, got %d attempts", res.Attempts)
	}
}

// TestHealthCheckRetryHoldsVC checks that a VC waiting out a
// health-check retry takes no second operation: it stays Paused from the
// first attempt until the round reports, and is Ready again after.
func TestHealthCheckRetryHoldsVC(t *testing.T) {
	cfg := DefaultNTPLSC()
	cfg.SleeperFailProb = 1.0
	cfg.HealthCheck = true
	cfg.HealthRetries = 3
	tb := newTestbed(t, 7, map[string]int{"alpha": 4, "beta": 4}, cfg)
	vc, err := tb.mgr.Allocate(VCSpec{Name: "hold", Nodes: 4, VMRAM: testVMRAM, Clusters: []string{"alpha"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(30 * sim.Second)
	var res *CheckpointResult
	if err := tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	if err := tb.co.Checkpoint(vc, func(*CheckpointResult) {}); err == nil {
		t.Error("a second checkpoint was accepted during the health-checked round")
	}
	if err := tb.co.LiveMigrate(vc, tb.site.UpNodes("beta"), func(*LiveMigrationResult) {}); err == nil {
		t.Error("a live migration was accepted during the health-checked round")
	}
	tb.k.RunFor(time60())
	if res == nil || res.OK {
		t.Fatalf("round with every sleeper dead should fail: %+v", res)
	}
	if vc.State() != VCReady {
		t.Fatalf("VC is %v after the failed round, want Ready", vc.State())
	}
}

func TestMigrateToAnotherCluster(t *testing.T) {
	tb := newTestbed(t, 10, map[string]int{"alpha": 3, "beta": 3}, DefaultNTPLSC())
	vc, err := tb.mgr.Allocate(VCSpec{Name: "mig", Nodes: 3, VMRAM: testVMRAM, Clusters: []string{"alpha"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(30 * sim.Second)
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewPTRANS(24, 7, 500, 10) })
	tb.k.RunFor(2 * sim.Second)

	targets := tb.site.UpNodes("beta")
	var res *CheckpointResult
	if err := tb.co.Migrate(vc, targets, func(r *CheckpointResult) { res = r }); err != nil {
		t.Fatal(err)
	}
	tb.k.RunFor(10 * sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("migration failed: %+v", res)
	}
	for _, n := range vc.PhysicalNodes() {
		if n.Cluster() != "beta" {
			t.Fatalf("VC still on %s after migration", n.Cluster())
		}
	}
	js := tb.runJob(t, vc, 30*sim.Minute)
	if !js.AllOK() {
		t.Fatalf("job after migration: %+v", js)
	}
	for r, app := range vc.RankApps() {
		if !app.(*hpcc.PTRANS).Passed {
			t.Fatalf("rank %d failed verification after migration", r)
		}
	}
}

func TestCrashRecoveryFromCheckpoint(t *testing.T) {
	cfg := DefaultNTPLSC()
	cfg.ContinueAfterSave = true
	tb := newTestbed(t, 11, map[string]int{"alpha": 6}, cfg)
	vc := tb.allocate(t, "cr", 3, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewPTRANS(24, 7, 800, 10) })
	tb.k.RunFor(2 * sim.Second)

	// Take a checkpoint-and-continue.
	var ck *CheckpointResult
	tb.co.Checkpoint(vc, func(r *CheckpointResult) { ck = r })
	tb.k.RunFor(3 * sim.Minute)
	if ck == nil || !ck.OK {
		t.Fatalf("checkpoint: %+v", ck)
	}

	// A hosting node dies mid-run.
	crashed := vc.PhysicalNodes()[1]
	crashed.Fail()
	tb.k.RunFor(5 * sim.Second)
	if vc.JobStatus().Failed == 0 && vc.Domains()[1].State() != vm.StateDestroyed {
		t.Fatal("crash had no effect")
	}

	// DVC recovery: tear down the remnants, restore the checkpoint on
	// fresh nodes ("restart a checkpoint of the entire virtual cluster
	// on a different set of physical nodes").
	vc.Teardown()
	var fresh []*phys.Node
	for _, n := range tb.site.UpNodes("alpha") {
		if h, _ := tb.mgr.Hypervisor(n.ID()); h.FreeRAM() >= testVMRAM {
			fresh = append(fresh, n)
		}
	}
	if len(fresh) < 3 {
		t.Fatalf("only %d fresh nodes", len(fresh))
	}
	var rr *RestoreResult
	tb.co.RestoreVC(vc, ck.Generation, fresh[:3], func(r *RestoreResult) { rr = r })
	tb.k.RunFor(5 * sim.Minute)
	if rr == nil || !rr.OK {
		t.Fatalf("restore: %+v", rr)
	}
	js := tb.runJob(t, vc, 30*sim.Minute)
	if !js.AllOK() {
		t.Fatalf("job after crash recovery: %+v", js)
	}
	for r, app := range vc.RankApps() {
		if !app.(*hpcc.PTRANS).Passed {
			t.Fatalf("rank %d failed verification after crash recovery", r)
		}
	}
}

func TestWallClockJumpVisibleToApplication(t *testing.T) {
	tb := newTestbed(t, 12, map[string]int{"alpha": 2}, DefaultNTPLSC())
	vc := tb.allocate(t, "wc", 2, guest.WatchdogConfig{})
	// A compute rate slow enough that HPL is still mid-factorisation when
	// the checkpoint lands (~7s of per-rank compute for N=160 at 0.2
	// MFlop/s).
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHPL(160, 5, 0.0002) })
	tb.k.RunFor(sim.Second)
	var res *CheckpointResult
	tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
	tb.k.RunFor(5 * sim.Minute)
	if res == nil || !res.OK {
		t.Fatalf("checkpoint: %+v", res)
	}
	js := tb.runJob(t, vc, time60())
	if !js.AllOK() {
		t.Fatalf("hpl after checkpoint: %+v", js)
	}
	h := vc.RankApps()[0].(*hpcc.HPL)
	if !h.Passed {
		t.Fatalf("hpl residual %g", h.Residual)
	}
	// The paper's observation: wall time includes the frozen gap, CPU
	// (jiffies) time does not.
	gap := h.WallTime() - h.CPUTime()
	if gap < res.Downtime/2 {
		t.Fatalf("wall-cpu gap %v does not reflect downtime %v", gap, res.Downtime)
	}
}

func TestWatchdogFiresOncePerCheckpointCycle(t *testing.T) {
	tb := newTestbed(t, 13, map[string]int{"alpha": 2}, DefaultNTPLSC())
	vc := tb.allocate(t, "wd", 2, guest.DefaultWatchdog())
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewPTRANS(24, 7, 4000, 10) })
	tb.k.RunFor(2 * sim.Second)
	for cycle := 1; cycle <= 2; cycle++ {
		var res *CheckpointResult
		tb.co.Checkpoint(vc, func(r *CheckpointResult) { res = r })
		tb.k.RunFor(3 * sim.Minute)
		if res == nil || !res.OK {
			t.Fatalf("cycle %d: %+v", cycle, res)
		}
		tb.k.RunFor(time30())
		for i, o := range vc.OSes() {
			if got := o.WatchdogTimeouts(); got != cycle {
				t.Fatalf("cycle %d: vm %d watchdog timeouts = %d", cycle, i, got)
			}
		}
	}
}

func time30() sim.Time { return 30 * sim.Second }

func TestPeriodicCheckpointing(t *testing.T) {
	cfg := DefaultNTPLSC()
	cfg.ContinueAfterSave = true
	tb := newTestbed(t, 14, map[string]int{"alpha": 3}, cfg)
	vc := tb.allocate(t, "per", 3, guest.WatchdogConfig{})
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewPTRANS(32, 7, 15000, 10) })
	p := tb.co.StartPeriodic(vc, 2*sim.Second, nil)
	js := tb.runJob(t, vc, time60())
	p.Stop()
	if !js.AllOK() {
		t.Fatalf("job under periodic checkpointing: %+v", js)
	}
	if p.SucceededCount() < 2 {
		t.Fatalf("only %d periodic checkpoints succeeded", p.SucceededCount())
	}
	if p.SucceededCount() != len(p.Results) {
		t.Fatalf("some periodic checkpoints failed: %d/%d", p.SucceededCount(), len(p.Results))
	}
}

func TestVCStateStrings(t *testing.T) {
	for s, want := range map[VCState]string{
		VCAllocating: "Allocating", VCReady: "Ready", VCPaused: "Paused",
		VCMigrating: "Migrating", VCSaved: "Saved", VCFailed: "Failed", VCReleased: "Released",
	} {
		if s.String() != want {
			t.Fatalf("%d -> %q", int(s), s.String())
		}
	}
	if LSCNaive.String() != "naive" || LSCNTP.String() != "ntp" {
		t.Fatal("LSC mode strings")
	}
}
