package hpcc

import (
	"runtime"
	"testing"

	"dvc/internal/mpi"
	"dvc/internal/sim"
)

// TestHaloRoundAllocations is the allocation gate for the steady-state
// halo round on the hpcc -> mpi -> guest -> tcp -> netsim path, where Go
// allocation and GC would otherwise dominate simulator host time. Message
// bodies are shared slices of haloZeros, the guest scheduler walks its
// PID-ordered table in place, ropes of up to two chunks are inline
// values, guest ops live in per-process slots and TCP segments are
// recycled at delivery. What is left per rank-round is the mpi layer's
// own: its op structs (two sends, two receives, one compute) and one
// encodeHeader buffer per send. A fresh body, a per-pass process-list
// copy, a heap rope header, a heap guest op or an unrecycled segment
// trips the gate. The world is deterministic (fixed seed, fixed
// simulated span), so the figures are stable run to run.
func TestHaloRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const (
		ranks    = 4
		msgBytes = 4096
		// Measured ~272 B and 7.0 mallocs per rank-round (the mpi op
		// structs and headers above). Before inline ropes, op slots and
		// segment recycling the same round measured ~1.1 KB and 28
		// mallocs. The bounds leave one malloc of headroom.
		maxBytesPerRound   = 512
		maxMallocsPerRound = 8
	)
	w := newWorld(t, ranks, func(int) mpi.App { return NewHalo(1<<30, 20*sim.Millisecond, msgBytes) })
	rounds := func() int {
		n := 0
		for r := 0; r < ranks; r++ {
			n += w.app(r).(*Halo).I
		}
		return n
	}
	// Warm up past connection setup and the first rounds, so lazy
	// initialisation (timers, rings, codec plans) is not billed.
	w.k.RunFor(sim.Second)
	before := rounds()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	bytes0, mallocs0 := ms.TotalAlloc, ms.Mallocs
	w.k.RunFor(4 * sim.Second)
	runtime.ReadMemStats(&ms)
	n := rounds() - before
	if n < 100*ranks {
		t.Fatalf("only %d rank-rounds in 4 s of a 20 ms halo", n)
	}
	perBytes := float64(ms.TotalAlloc-bytes0) / float64(n)
	perMallocs := float64(ms.Mallocs-mallocs0) / float64(n)
	t.Logf("%d rank-rounds: %.0f B and %.1f mallocs per rank-round", n, perBytes, perMallocs)
	if perBytes > maxBytesPerRound {
		t.Errorf("halo round allocated %.0f B per rank-round, gate is %d (a body is %d B) — a per-round buffer crept back in",
			perBytes, maxBytesPerRound, msgBytes)
	}
	if perMallocs > maxMallocsPerRound {
		t.Errorf("halo round made %.1f mallocs per rank-round, gate is %d", perMallocs, maxMallocsPerRound)
	}
}
