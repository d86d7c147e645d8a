package experiments

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// These tests enforce the fleet determinism contract end to end: running
// an experiment on a trial pool of any size must produce bytes
// identical to the serial loop — tables, shape checks, the JSONL event
// trace and the counter registry. The mechanism under
// test is the pair of structural properties internal/fleet and sweep
// guarantee: kernels never cross goroutines, and results (and child
// traces) merge in (cell, trial) order on the caller's goroutine. All three tests read the one pair of runs from e2Pair.

// TestParallelMatchesSerial: same seed, serial loop vs 4-worker pool —
// the tables and shape checks must match.
func TestParallelMatchesSerial(t *testing.T) {
	serial, par := e2Pair(t)
	if !bytes.Equal(serial.tables, par.tables) {
		t.Errorf("E2 tables differ between serial and 4 workers:\n--- serial ---\n%s\n--- 4 workers ---\n%s", serial.tables, par.tables)
	}
	if len(serial.checks) != len(par.checks) {
		t.Fatalf("E2 check counts differ: serial %d, 4 workers %d", len(serial.checks), len(par.checks))
	}
	for i := range serial.checks {
		if serial.checks[i] != par.checks[i] {
			t.Errorf("E2 check %d differs:\n  serial: %+v\n  4 workers: %+v", i, serial.checks[i], par.checks[i])
		}
	}
}

// TestStreamedTraceMatchesSerial: every trial records into a Child's
// memory buffer, and Merge streams it out through the parent's
// JSONLSink. The streamed trace must not depend on the pool size or on
// the sink's buffer size: the 4-worker run through a 4096-byte buffer
// must write the serial run's bytes, record for record.
func TestStreamedTraceMatchesSerial(t *testing.T) {
	serial, par := e2Pair(t)
	if len(serial.trace) == 0 {
		t.Fatal("serial run recorded an empty trace")
	}
	diffTraces(t, "E2 serial vs 4 workers", serial.trace, par.trace)
	if serial.records != par.records {
		t.Fatalf("serial run streamed %d records, 4 workers streamed %d", serial.records, par.records)
	}
}

// TestStreamedRegistryMatchesMemory: the registry travels the same
// Child-to-parent merge path as records; the pool size must not change
// it.
func TestStreamedRegistryMatchesMemory(t *testing.T) {
	serial, par := e2Pair(t)
	if serial.registry != par.registry {
		t.Errorf("E2 registry snapshots differ:\n--- serial ---\n%s\n--- 4 workers ---\n%s", serial.registry, par.registry)
	}
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
