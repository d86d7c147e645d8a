package experiments

import (
	"runtime"
	"testing"
	"time"
)

// These tests enforce the fleet determinism contract end to end: running
// an experiment on a trial pool of any size must produce bytes
// identical to the serial loop — tables, shape checks, the JSONL event
// trace, and the counter registry. The mechanism under test is the pair
// of structural properties internal/fleet and forEachTrial guarantee:
// kernels never cross goroutines, and results (and child traces) merge
// in trial-index order on the caller's goroutine.

// TestParallelMatchesSerial: same seed, GOMAXPROCS=1 (inline, no
// goroutines) vs GOMAXPROCS=4 (4-worker pool) — every external byte must
// match.
func TestParallelMatchesSerial(t *testing.T) {
	sameE2(t, "4 workers", e2Serial(t), e2Memory(t, 4))
}

// BenchmarkParallelSpeedup measures E2 at trials=8 with a serial pool
// (GOMAXPROCS=1) against one worker per core, and reports the wall-clock
// speedup. On a single-core runner the speedup is ~1.0 by construction;
// the acceptance target (≥2× on a 4-core runner) is read from the
// reported metric, not asserted here.
//
// Run it alone (it is deliberately heavy):
//
//	go test -run '^$' -bench BenchmarkParallelSpeedup -benchtime 1x ./internal/experiments
func BenchmarkParallelSpeedup(b *testing.B) {
	const seed, trials = 20070917, 8
	workers := runtime.NumCPU()
	run := func(procs int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		start := time.Now()
		if _, err := Run("E2", Options{Seed: seed, Trials: trials}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}

	var serial, parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial += run(1)
		parallel += run(workers)
	}
	b.StopTimer()

	speedup := float64(serial) / float64(parallel)
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(serial.Seconds()/float64(b.N), "serial-s/op")
	b.ReportMetric(parallel.Seconds()/float64(b.N), "parallel-s/op")
}
