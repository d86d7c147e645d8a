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
// values, guest ops live in per-process slots, mpi ops in per-rank slots
// (Ctx.Send, Ctx.Recv, Ctx.Compute), message headers are interned per
// rank and TCP segments are recycled at delivery. A steady-state round
// therefore allocates nothing at all: a fresh body, a heap op, a fresh
// header, a per-pass process-list copy, a heap rope header or an
// unrecycled segment trips the gate. The world is deterministic (fixed
// seed, fixed simulated span), so the figures are stable run to run.
func TestHaloRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const (
		ranks    = 4
		msgBytes = 4096
		// Measured 0 B and 0 mallocs per rank-round. Before the mpi op
		// slots and interned headers the same round measured ~272 B and
		// 7.0 mallocs, and before inline ropes, guest op slots and
		// segment recycling ~1.1 KB and 28.
		maxBytesPerRound   = 0
		maxMallocsPerRound = 0
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
	// The Go runtime itself now and then allocates while a window runs:
	// restarting the world after a stop (runtime.GC, ReadMemStats) may
	// start an OS thread, five mallocs and ~5 KB, and a bare spin loop
	// in place of the halo sees a lone 16 B malloc in a few percent of
	// windows. So the windows run on one P, as testing.AllocsPerRun
	// does, which leaves no idle P to wake a thread for, and the gate
	// reads the quietest of three 4 s windows: an allocation made per
	// round shows in all three.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		n              int
		bytes, mallocs uint64
		ms             runtime.MemStats
	)
	for i := 0; i < 3; i++ {
		before := rounds()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		bytes0, mallocs0 := ms.TotalAlloc, ms.Mallocs
		w.k.RunFor(4 * sim.Second)
		runtime.ReadMemStats(&ms)
		wn, wb, wm := rounds()-before, ms.TotalAlloc-bytes0, ms.Mallocs-mallocs0
		if wn < 100*ranks {
			t.Fatalf("only %d rank-rounds in 4 s of a 20 ms halo", wn)
		}
		if i == 0 || wm < mallocs || (wm == mallocs && wb < bytes) {
			n, bytes, mallocs = wn, wb, wm
		}
	}
	perBytes := float64(bytes) / float64(n)
	perMallocs := float64(mallocs) / float64(n)
	t.Logf("quietest window, %d rank-rounds: %.0f B and %.1f mallocs per rank-round", n, perBytes, perMallocs)
	if perBytes > maxBytesPerRound {
		t.Errorf("halo rounds allocated %d B over %d rank-rounds, gate is %d B per rank-round (a body is %d B)",
			bytes, n, maxBytesPerRound, msgBytes)
	}
	if perMallocs > maxMallocsPerRound {
		t.Errorf("halo rounds made %d mallocs over %d rank-rounds, gate is %d per rank-round", mallocs, n, maxMallocsPerRound)
	}
}
