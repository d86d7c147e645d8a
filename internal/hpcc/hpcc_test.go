package hpcc

import (
	"fmt"
	"math"
	"testing"

	"dvc/internal/guest"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

// world builds n bare guests and launches an MPI app on them.
type world struct {
	k    *sim.Kernel
	oses []*guest.OS
	pids []guest.PID
}

func newWorld(t *testing.T, n int, makeApp func(rank int) mpi.App) *world {
	t.Helper()
	k := sim.NewKernel(55)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	w := &world{k: k}
	for i := 0; i < n; i++ {
		addr := netsim.Addr(fmt.Sprintf("r%d", i))
		s := tcp.NewStack(k, f, addr, tcp.DefaultConfig())
		f.Attach(addr, "c", s.Deliver)
		w.oses = append(w.oses, guest.New(k, s, func() sim.Time { return k.Now() }, 1.0, guest.WatchdogConfig{}))
	}
	w.pids = mpi.Launch(w.oses, 6000, makeApp)
	return w
}

func (w *world) run(t *testing.T, limit sim.Time) {
	t.Helper()
	w.k.RunFor(limit)
	for i, o := range w.oses {
		p, _ := o.Proc(w.pids[i])
		if !p.Exited() {
			t.Fatalf("rank %d never exited", i)
		}
		if p.ExitCode() != 0 {
			d := p.Program().(*mpi.Driver)
			t.Fatalf("rank %d exit %d: %s", i, p.ExitCode(), d.R.Failed)
		}
	}
}

func (w *world) app(rank int) mpi.App {
	p, _ := w.oses[rank].Proc(w.pids[rank])
	return p.Program().(*mpi.Driver).App
}

func TestHPLSolvesCorrectly(t *testing.T) {
	for _, tc := range []struct{ n, p int }{
		{16, 1}, {16, 2}, {32, 3}, {48, 4}, {64, 8},
	} {
		tc := tc
		t.Run(fmt.Sprintf("N=%d_P=%d", tc.n, tc.p), func(t *testing.T) {
			w := newWorld(t, tc.p, func(int) mpi.App { return NewHPL(tc.n, 42, 10) })
			w.run(t, sim.Hour)
			h := w.app(0).(*HPL)
			if !h.Finished || !h.Passed {
				t.Fatalf("HPL failed: finished=%v residual=%g", h.Finished, h.Residual)
			}
			if h.Residual > 16 {
				t.Fatalf("residual %g exceeds HPL threshold", h.Residual)
			}
		})
	}
}

func TestHPLDifferentSeedsDifferentMatrices(t *testing.T) {
	if Elem(1, 3, 4) == Elem(2, 3, 4) {
		t.Fatal("different seeds gave identical elements")
	}
	if Elem(1, 3, 4) != Elem(1, 3, 4) {
		t.Fatal("generator not deterministic")
	}
	if Elem(1, 3, 4) == Elem(1, 4, 3) {
		t.Fatal("matrix unexpectedly symmetric")
	}
}

func TestElemRange(t *testing.T) {
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			v := Elem(7, i, j)
			if v < -0.5 || v >= 0.5 {
				t.Fatalf("Elem(7,%d,%d) = %v out of range", i, j, v)
			}
		}
	}
}

func TestHPLChargesComputeTime(t *testing.T) {
	// The same problem at a lower compute rate must take longer.
	w1 := newWorld(t, 2, func(int) mpi.App { return NewHPL(32, 42, 10) })
	w1.run(t, sim.Hour)
	fast := w1.app(0).(*HPL).WallTime()
	w2 := newWorld(t, 2, func(int) mpi.App { return NewHPL(32, 42, 1) })
	w2.run(t, sim.Hour)
	slow := w2.app(0).(*HPL).WallTime()
	if slow <= fast {
		t.Fatalf("1 GF/s run (%v) not slower than 10 GF/s run (%v)", slow, fast)
	}
}

func TestPTRANSVerifies(t *testing.T) {
	for _, tc := range []struct{ n, p, reps int }{
		{16, 1, 1}, {24, 2, 2}, {32, 4, 3}, {30, 5, 2},
	} {
		tc := tc
		t.Run(fmt.Sprintf("N=%d_P=%d_R=%d", tc.n, tc.p, tc.reps), func(t *testing.T) {
			w := newWorld(t, tc.p, func(int) mpi.App { return NewPTRANS(tc.n, 7, tc.reps, 10) })
			w.run(t, sim.Hour)
			for r := 0; r < tc.p; r++ {
				pt := w.app(r).(*PTRANS)
				if !pt.Finished || !pt.Passed {
					t.Fatalf("rank %d: finished=%v maxerr=%g", r, pt.Finished, pt.MaxErr)
				}
			}
		})
	}
}

func TestPTRANSSingleRepIsExactTranspose(t *testing.T) {
	// With alpha=1, beta=0: A becomes exactly A0ᵀ.
	w := newWorld(t, 3, func(int) mpi.App {
		p := NewPTRANS(18, 9, 1, 10)
		p.Alpha, p.Beta = 1, 0
		return p
	})
	w.run(t, sim.Hour)
	pt := w.app(1).(*PTRANS)
	for i := 1; i < 18; i += 3 {
		for j := 0; j < 18; j++ {
			if got, want := pt.Rows[i][j], Elem(9, j, i); math.Abs(got-want) > 1e-12 {
				t.Fatalf("A[%d][%d] = %v, want A0ᵀ = %v", i, j, got, want)
			}
		}
	}
}

func TestSeqJobTiming(t *testing.T) {
	k := sim.NewKernel(3)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	s := tcp.NewStack(k, f, "g", tcp.DefaultConfig())
	f.Attach("g", "c", s.Deliver)
	o := guest.New(k, s, func() sim.Time { return k.Now() }, 1.0, guest.WatchdogConfig{})
	job := NewSeqJob(10, 1e9, 10) // 10 rounds x 0.1s
	pid := o.Spawn(job)
	k.Run()
	p, _ := o.Proc(pid)
	if !p.Exited() || !job.Finished {
		t.Fatal("seq job did not finish")
	}
	if job.WallTime() != sim.Second {
		t.Fatalf("wall time %v, want 1s", job.WallTime())
	}
	if cpu := job.EndJiff - job.StartJiff; cpu != sim.Second {
		t.Fatalf("cpu time %v, want 1s", cpu)
	}
}

func TestPingPongMeasuresLatencyAndBandwidth(t *testing.T) {
	// Small message: RTT dominated by 2x55us latency.
	w := newWorld(t, 2, func(int) mpi.App { return NewPingPong(8, 50) })
	w.run(t, sim.Minute)
	pp := w.app(0).(*PingPong)
	if !pp.Done {
		t.Fatal("pingpong not done")
	}
	if pp.AvgRTT < 100*sim.Microsecond || pp.AvgRTT > 500*sim.Microsecond {
		t.Fatalf("small-message RTT %v, want ~150-300us", pp.AvgRTT)
	}

	// Large message: bandwidth should approach the 117MB/s line rate.
	w2 := newWorld(t, 2, func(int) mpi.App { return NewPingPong(4<<20, 5) })
	w2.run(t, sim.Minute)
	pp2 := w2.app(0).(*PingPong)
	if pp2.Bandwidth < 80e6 || pp2.Bandwidth > 120e6 {
		t.Fatalf("large-message bandwidth %.1f MB/s, want ~100", pp2.Bandwidth/1e6)
	}
}

func TestFlopsTime(t *testing.T) {
	if FlopsTime(1e9, 1) != sim.Second {
		t.Fatal("1 Gflop at 1 GF/s should be 1s")
	}
	if FlopsTime(1e9, 10) != 100*sim.Millisecond {
		t.Fatal("1 Gflop at 10 GF/s should be 100ms")
	}
	if FlopsTime(1e9, 0) != sim.Second {
		t.Fatal("zero rate should default to 1 GF/s")
	}
}

func TestHPLWallVsCPUEqualWithoutCheckpoints(t *testing.T) {
	w := newWorld(t, 2, func(int) mpi.App { return NewHPL(24, 11, 10) })
	w.run(t, sim.Hour)
	h := w.app(0).(*HPL)
	if h.WallTime() != h.CPUTime() {
		t.Fatalf("wall %v != cpu %v without any freeze", h.WallTime(), h.CPUTime())
	}
	if h.WallTime() <= 0 {
		t.Fatal("no time charged")
	}
}

func TestHaloExchange(t *testing.T) {
	w := newWorld(t, 6, func(int) mpi.App { return NewHalo(50, 20*sim.Millisecond, 1024) })
	w.run(t, sim.Minute)
	for r := 0; r < 6; r++ {
		h := w.app(r).(*Halo)
		if !h.Finished || h.I != 50 {
			t.Fatalf("rank %d: finished=%v rounds=%d", r, h.Finished, h.I)
		}
	}
	h := w.app(0).(*Halo)
	// 50 rounds x 20ms compute plus comm.
	if wall := h.EndWall - h.StartWall; wall < sim.Second {
		t.Fatalf("halo wall time %v", wall)
	}
}

func TestHaloSingleRankExitsImmediately(t *testing.T) {
	w := newWorld(t, 1, func(int) mpi.App { return NewHalo(50, 20*sim.Millisecond, 64) })
	w.run(t, sim.Minute)
	if !w.app(0).(*Halo).Finished {
		t.Fatal("singleton halo should finish trivially")
	}
}

func TestStreamVerifiesAndReportsBandwidth(t *testing.T) {
	k := sim.NewKernel(9)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	s := tcp.NewStack(k, f, "g", tcp.DefaultConfig())
	f.Attach("g", "c", s.Deliver)
	o := guest.New(k, s, func() sim.Time { return k.Now() }, 1.0, guest.WatchdogConfig{})
	job := NewStream(1<<12, 20, 5e9) // model a 5 GB/s node
	pid := o.Spawn(job)
	k.Run()
	p, _ := o.Proc(pid)
	if !p.Exited() || !job.Finished {
		t.Fatal("stream did not finish")
	}
	if !job.Verified {
		t.Fatal("stream arithmetic verification failed")
	}
	// The reported bandwidth must match the model within rounding.
	if job.AvgGBs < 4.9 || job.AvgGBs > 5.1 {
		t.Fatalf("reported %.2f GB/s, want ~5", job.AvgGBs)
	}
}

func TestStreamSlowerMemorySlowerRun(t *testing.T) {
	run := func(bw float64) sim.Time {
		k := sim.NewKernel(9)
		f := netsim.NewFabric(k)
		f.AddCluster("c", netsim.EthernetGigE())
		s := tcp.NewStack(k, f, "g", tcp.DefaultConfig())
		f.Attach("g", "c", s.Deliver)
		o := guest.New(k, s, func() sim.Time { return k.Now() }, 1.0, guest.WatchdogConfig{})
		job := NewStream(1<<12, 10, bw)
		o.Spawn(job)
		k.Run()
		return job.EndWall - job.StartWall
	}
	if run(2e9) <= run(6e9) {
		t.Fatal("slower memory should take longer")
	}
}

func TestRandomAccessVerifies(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		n := n
		t.Run(fmt.Sprintf("P=%d", n), func(t *testing.T) {
			w := newWorld(t, n, func(int) mpi.App { return NewRandomAccess(12, 3, 200, 10) })
			w.run(t, sim.Hour)
			for r := 0; r < n; r++ {
				ra := w.app(r).(*RandomAccess)
				if !ra.Finished || !ra.Verified {
					t.Fatalf("rank %d: finished=%v verified=%v", r, ra.Finished, ra.Verified)
				}
				if ra.GUPS <= 0 {
					t.Fatalf("rank %d reported no GUPS", r)
				}
			}
		})
	}
}

func TestRandomAccessDetectsCorruption(t *testing.T) {
	// White-box: corrupt the table after the run and re-verify manually.
	w := newWorld(t, 2, func(int) mpi.App { return NewRandomAccess(10, 2, 100, 10) })
	w.run(t, sim.Hour)
	ra := w.app(0).(*RandomAccess)
	if !ra.Verified {
		t.Fatal("setup: clean run should verify")
	}
	// The verifier is exact: a single flipped bit must be caught.
	ra.Table[0] ^= 1
	lo, hi := ra.tableRange(0, 2)
	want := make([]uint64, hi-lo)
	for i := range want {
		want[i] = uint64(lo + i)
	}
	for r := 0; r < 2; r++ {
		for b := 0; b < ra.Batches; b++ {
			for u := 0; u < ra.BatchPerRank; u++ {
				idx, val := raStream(raSeed, r, b, u, ra.TableBits)
				if idx >= lo && idx < hi {
					want[idx-lo] ^= val
				}
			}
		}
	}
	match := true
	for i := range want {
		if ra.Table[i] != want[i] {
			match = false
		}
	}
	if match {
		t.Fatal("corruption not detectable")
	}
}
