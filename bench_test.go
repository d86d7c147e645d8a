package dvc

// One benchmark per paper table/figure (see DESIGN.md's per-experiment
// index). Each iteration regenerates the experiment at quick settings and
// fails the benchmark if any of its shape checks against the paper break.
// Set DVC_BENCH_FULL=1 for paper-scale parameters (E2's >2000 trials,
// E10's 1024-VM sweeps, ...).
//
// Key per-iteration metrics are attached with b.ReportMetric so -benchmem
// runs document the reproduced numbers alongside timing.

import (
	"os"
	"testing"
)

func benchOptions(b *testing.B, trials int) ExperimentOptions {
	b.Helper()
	return ExperimentOptions{
		Seed:   42,
		Trials: trials,
		Full:   os.Getenv("DVC_BENCH_FULL") == "1",
	}
}

func runExperimentBench(b *testing.B, id string, trials int) *ExperimentResult {
	b.Helper()
	var last *ExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment(id, benchOptions(b, trials))
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range res.FailedChecks() {
			b.Fatalf("%s shape check %q failed: %s", id, c.Name, c.Detail)
		}
		last = res
	}
	return last
}

// BenchmarkE1NaiveLSCScaling regenerates §3.1's naive-coordinator failure
// curve (paper: fine ≤8 nodes, 50% fail at 10, 90% at 12).
func BenchmarkE1NaiveLSCScaling(b *testing.B) {
	runExperimentBench(b, "E1", 6)
}

// BenchmarkE2NTPLSCReliability regenerates §3.2's headline result (paper:
// 0 failures in >2000 saves/restores of 26 VMs on 26 nodes).
func BenchmarkE2NTPLSCReliability(b *testing.B) {
	runExperimentBench(b, "E2", 4)
}

// BenchmarkE3ConsistentCut regenerates Figure 2's scenarios: both TCP
// cuts are consistent, the unreliable-protocol control is not.
func BenchmarkE3ConsistentCut(b *testing.B) {
	runExperimentBench(b, "E3", 0)
}

// BenchmarkE4CheckpointOverhead regenerates §3.2's slowdown and
// wall-clock-jump observations for HPL and PTRANS.
func BenchmarkE4CheckpointOverhead(b *testing.B) {
	runExperimentBench(b, "E4", 0)
}

// BenchmarkE5CheckpointEfficiency regenerates the abstract's DVC-vs-
// application-checkpoint efficiency comparison (§2 taxonomy).
func BenchmarkE5CheckpointEfficiency(b *testing.B) {
	runExperimentBench(b, "E5", 0)
}

// BenchmarkE6Watchdog regenerates §3.2's watchdog observation: exactly
// one stall report per VM per save/restore cycle, execution unaffected.
func BenchmarkE6Watchdog(b *testing.B) {
	runExperimentBench(b, "E6", 0)
}

// BenchmarkE7VirtOverhead regenerates the abstract's sequential/parallel
// virtualisation overhead measurements.
func BenchmarkE7VirtOverhead(b *testing.B) {
	runExperimentBench(b, "E7", 0)
}

// BenchmarkE8FaultTolerantThroughput regenerates §1's claim that DVC+LSC
// loses less work than physical requeue under node faults.
func BenchmarkE8FaultTolerantThroughput(b *testing.B) {
	runExperimentBench(b, "E8", 0)
}

// BenchmarkE9MultiCluster regenerates §1's claim that spanning virtual
// clusters outperform the same clusters operating independently.
func BenchmarkE9MultiCluster(b *testing.B) {
	runExperimentBench(b, "E9", 0)
}

// BenchmarkE10HealthCheckScaling regenerates §4's scaling argument:
// health-checked saves keep large checkpoint sets reliable.
func BenchmarkE10HealthCheckScaling(b *testing.B) {
	runExperimentBench(b, "E10", 4)
}

// BenchmarkE11Migration regenerates §4's parallel-migration extension
// with downtime vs cluster size.
func BenchmarkE11Migration(b *testing.B) {
	runExperimentBench(b, "E11", 0)
}

// BenchmarkE12Infiniband regenerates §4's InfiniBand discussion: fabric
// performance vs snapshot consistency.
func BenchmarkE12Infiniband(b *testing.B) {
	runExperimentBench(b, "E12", 0)
}

// BenchmarkE13LiveMigration compares pre-copy live migration against the
// LSC stop-and-copy across guest dirty rates (extension).
func BenchmarkE13LiveMigration(b *testing.B) {
	runExperimentBench(b, "E13", 0)
}

// BenchmarkE14DeltaCheckpoints compares full-image and delta-epoch
// checkpoint policies (extension).
func BenchmarkE14DeltaCheckpoints(b *testing.B) {
	runExperimentBench(b, "E14", 0)
}

// BenchmarkE15HeterogeneousStacks regenerates DVC's founding motivation:
// pooling stack-locked clusters through per-job virtual software stacks.
func BenchmarkE15HeterogeneousStacks(b *testing.B) {
	runExperimentBench(b, "E15", 0)
}

// BenchmarkA1RetryBudgetAblation sweeps the TCP retry budget: the naive
// failure cliff follows the budget, the NTP coordinator does not care.
func BenchmarkA1RetryBudgetAblation(b *testing.B) {
	runExperimentBench(b, "A1", 4)
}

// BenchmarkA2ClockQualityAblation sweeps NTP residual error: LSC keeps a
// ~1000x safety margin over real NTP and only breaks near second-scale
// clock error.
func BenchmarkA2ClockQualityAblation(b *testing.B) {
	runExperimentBench(b, "A2", 4)
}

// BenchmarkCheckpoint26VMs measures one NTP-coordinated save/restore
// cycle of a 26-VM cluster — the paper's system size — as a plain
// operation benchmark.
func BenchmarkCheckpoint26VMs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulation(int64(i))
		s.AddCluster("alpha", 26)
		s.Start()
		vc := s.MustAllocate(VCSpec{Name: "b", Nodes: 26, VMRAM: 256 << 20})
		vc.LaunchMPI(6000, func(int) App { return NewHalo(4000, 20*Millisecond, 2048) })
		s.RunFor(Second)
		res := s.MustCheckpoint(vc)
		b.ReportMetric(res.SaveSkew.Seconds()*1000, "skew-ms")
		b.ReportMetric(res.Downtime.Seconds(), "downtime-s")
	}
}

// BenchmarkHPLSolve measures the distributed HPL solver itself (host
// compute cost of the reproduction's real numerics).
func BenchmarkHPLSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulation(int64(i))
		s.AddCluster("alpha", 4)
		s.Start()
		vc := s.MustAllocate(VCSpec{Name: "b", Nodes: 4, VMRAM: 256 << 20})
		vc.LaunchMPI(6000, func(int) App { return NewHPL(128, int64(i), 10) })
		js := s.RunUntilJobDone(vc, Hour)
		if !js.AllOK() {
			b.Fatal("hpl failed")
		}
	}
}
