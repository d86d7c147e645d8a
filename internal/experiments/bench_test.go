package experiments

import (
	"runtime"
	"testing"
	"time"

	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

// BenchmarkE2EventRate measures end-to-end kernel event throughput on the
// E2-shaped workload (8-node LSC bed, halo-exchange MPI job, one
// coordinated checkpoint): wall-clock nanoseconds per kernel event
// dispatched, with the full stack — TCP, netsim, guest scheduling, VM
// lifecycle, storage transfers — generating the events. This is the
// number the slab kernel exists to improve; BenchmarkKernelChurn isolates
// the event path, this keeps it in context. Run alone (it is
// deliberately heavy):
//
//	go test -run '^$' -bench BenchmarkE2EventRate -benchtime 1x ./internal/experiments
func BenchmarkE2EventRate(b *testing.B) {
	const seed, nodes = 20070917, 8
	var totalEvents uint64
	var totalWall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := newBed(seed, map[string]int{"alpha": nodes}, core.DefaultNTPLSC(), true)
		vc := bd.allocate("bench", nodes, guest.WatchdogConfig{})
		vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(600, 20*sim.Millisecond, 4096) })
		start := time.Now()
		bd.Kernel.RunFor(2 * sim.Second)
		res, _ := bd.Checkpoint(vc, 10*sim.Minute)
		js := bd.RunUntilJobDone(vc, 4*sim.Hour)
		totalWall += time.Since(start)
		totalEvents += bd.Kernel.Fired()
		if res == nil || !res.OK {
			b.Fatalf("checkpoint failed: %+v", res)
		}
		if !js.AllOK() {
			b.Fatalf("job failed: %+v", js)
		}
	}
	b.StopTimer()

	nsPerEvent := float64(totalWall.Nanoseconds()) / float64(totalEvents)
	eventsPerSec := float64(totalEvents) / totalWall.Seconds()
	b.ReportMetric(nsPerEvent, "ns/event")
	b.ReportMetric(eventsPerSec/1e6, "Mevents/s")
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
