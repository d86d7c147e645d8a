package experiments

import (
	"fmt"

	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/sim"
	"dvc/internal/tcp"
	"dvc/internal/vm"
)

func init() {
	register("E7", "Virtualisation overhead: sequential and parallel jobs, native vs Xen VC (abstract)", runE7)
}

// runE7 reproduces the abstract's promised "measurements of the overhead
// required for virtual clusters running both sequential and parallel
// jobs": CPU-bound work pays the small para-virt tax, the network path
// pays more, and parallel jobs land in between according to their
// compute/communication mix.
func runE7(opts Options) *Result {
	res := &Result{}
	tbl := metrics.NewTable("E7: native vs virtual-cluster performance",
		"workload", "metric", "native", "virtual", "overhead")

	// Every measurement run is an independent simulation with its own
	// kernel, so the native/virtual pairs fan across the fleet pool as
	// ten trials; the table assembles from the indexed results exactly as
	// the old straight-line code did.
	type meas struct {
		t  sim.Time
		bw float64
	}
	tasks := []func() meas{
		func() meas { return meas{t: runSeqJob(opts.Seed, false)} }, // 0: sequential native
		func() meas { return meas{t: runSeqJob(opts.Seed, true)} },  // 1: sequential virtual
		func() meas { // 2: ping-pong native (latency + bandwidth)
			lat, bw := runPingPong(opts.Seed, false, netsim.EthernetGigE())
			return meas{t: lat, bw: bw}
		},
		func() meas { // 3: ping-pong virtual
			lat, bw := runPingPong(opts.Seed, true, netsim.EthernetGigE())
			return meas{t: lat, bw: bw}
		},
		func() meas { return meas{t: runParallelHPCC(opts.Seed, false, "hpl")} },          // 4
		func() meas { return meas{t: runParallelHPCC(opts.Seed, true, "hpl")} },           // 5
		func() meas { return meas{t: runParallelHPCC(opts.Seed, false, "ptrans")} },       // 6
		func() meas { return meas{t: runParallelHPCC(opts.Seed, true, "ptrans")} },        // 7
		func() meas { return meas{t: runParallelHPCC(opts.Seed, false, "randomaccess")} }, // 8
		func() meas { return meas{t: runParallelHPCC(opts.Seed, true, "randomaccess")} },  // 9
	}
	m := forEachTrial(opts, len(tasks), func(i int, _ *obs.Tracer) meas { return tasks[i]() })

	// --- sequential compute job ---
	seqNative, seqVirt := m[0].t, m[1].t
	seqOv := over(seqNative.Seconds(), seqVirt.Seconds())
	tbl.Row("sequential", "runtime", seqNative, seqVirt, pctStr(seqOv))

	// --- ping-pong microbenchmark ---
	latN, bwN := m[2].t, m[2].bw
	latV, bwV := m[3].t, m[3].bw
	latOv := over(latN.Seconds(), latV.Seconds())
	bwOv := over(bwV, bwN) // inverted: lower bandwidth = overhead
	tbl.Row("pingpong-8B", "half-RTT", latN/2, latV/2, pctStr(latOv))
	tbl.Row("pingpong-4MiB", "bandwidth", fmtMBs(bwN), fmtMBs(bwV), pctStr(bwOv))

	// --- parallel workloads (4 ranks) ---
	hplN, hplV := m[4].t, m[5].t
	hplOv := over(hplN.Seconds(), hplV.Seconds())
	tbl.Row("hpl-N160x4", "runtime", hplN, hplV, pctStr(hplOv))

	ptN, ptV := m[6].t, m[7].t
	ptOv := over(ptN.Seconds(), ptV.Seconds())
	tbl.Row("ptrans-N64x4", "runtime", ptN, ptV, pctStr(ptOv))

	raN, raV := m[8].t, m[9].t
	raOv := over(raN.Seconds(), raV.Seconds())
	tbl.Row("randomaccess", "runtime", raN, raV, pctStr(raOv))
	res.table(tbl, opts.out())

	res.check("sequential overhead is the para-virt CPU tax (~3%)",
		seqOv > 1 && seqOv < 6, "%.1f%%", seqOv)
	res.check("network latency overhead exceeds CPU overhead",
		latOv > seqOv, "latency %.1f%% vs cpu %.1f%%", latOv, seqOv)
	res.check("virtual bandwidth is lower", bwV < bwN,
		"%.1f vs %.1f MB/s", bwV/1e6, bwN/1e6)
	res.check("compute-bound HPL overhead near the CPU tax",
		hplOv >= 1 && hplOv < 15, "%.1f%%", hplOv)
	res.check("comm-heavy PTRANS pays more than HPL",
		ptOv > hplOv, "ptrans %.1f%% vs hpl %.1f%%", ptOv, hplOv)
	res.check("latency-bound RandomAccess pays the most",
		raOv > hplOv, "randomaccess %.1f%% vs hpl %.1f%%", raOv, hplOv)
	return res
}

func over(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

func pctStr(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

func fmtMBs(bw float64) string { return fmt.Sprintf("%.1fMB/s", bw/1e6) }

// runSeqJob times a sequential compute job natively or in a single VM.
func runSeqJob(seed int64, virt bool) sim.Time {
	b := newBed(seed, map[string]int{"alpha": 1}, coreNTP(), true)
	job := hpcc.NewSeqJob(60, 1e10, guestFlops) // 60 GFlop = 60s at 10 GF/s
	if virt {
		vc := b.allocate("seq", 1, guest.WatchdogConfig{})
		vc.OSes()[0].Spawn(job)
	} else {
		os, _ := vm.NativeOS(b.Kernel, b.Site.Fabric, b.Site.Nodes()[0], "native", tcp.DefaultConfig(), guest.WatchdogConfig{})
		os.Spawn(job)
	}
	b.Kernel.RunFor(sim.Hour)
	if !job.Finished {
		panic("seq job did not finish")
	}
	return job.WallTime()
}

// runPingPong measures small-message RTT and large-message bandwidth.
func runPingPong(seed int64, virt bool, profile netsim.LinkProfile) (sim.Time, float64) {
	run := func(msg, iters int) *hpcc.PingPong {
		b := makeBed(seed, bedOptions{clusters: map[string]int{"alpha": 2}, lsc: coreNTP(), ntp: true, profile: &profile})
		app0 := hpcc.NewPingPong(msg, iters)
		apps := []mpi.App{app0, hpcc.NewPingPong(msg, iters)}
		if virt {
			vc := b.allocate("pp", 2, guest.WatchdogConfig{})
			vc.LaunchMPI(6000, func(r int) mpi.App { return apps[r] })
		} else {
			var oses []*guest.OS
			for i, n := range b.Site.Nodes()[:2] {
				os, _ := vm.NativeOS(b.Kernel, b.Site.Fabric, n, netsim.Addr(fmt.Sprintf("n%d", i)), tcp.DefaultConfig(), guest.WatchdogConfig{})
				oses = append(oses, os)
			}
			mpi.Launch(oses, 6000, func(r int) mpi.App { return apps[r] })
		}
		b.Kernel.RunFor(10 * sim.Minute)
		if !app0.Done {
			panic("pingpong did not finish")
		}
		return app0
	}
	lat := run(8, 200).AvgRTT
	bw := run(4<<20, 10).Bandwidth
	return lat, bw
}

// runParallelHPCC times a 4-rank workload natively or in a VC.
func runParallelHPCC(seed int64, virt bool, kind string) sim.Time {
	b := newBed(seed, map[string]int{"alpha": 4}, coreNTP(), true)
	makeApp := func(int) mpi.App {
		switch kind {
		case "hpl":
			return hpcc.NewHPL(160, 42, 4.5e-5) // ~60s compute-bound
		case "randomaccess":
			return hpcc.NewRandomAccess(14, 50, 500, 10) // latency-bound
		default:
			return hpcc.NewPTRANS(64, 42, 3000, 10) // comm-bound
		}
	}
	var apps []mpi.App
	if virt {
		vc := b.allocate("par", 4, guest.WatchdogConfig{})
		vc.LaunchMPI(6000, makeApp)
		js := b.RunUntilJobDone(vc, 4*sim.Hour)
		if !js.AllOK() {
			panic("parallel job failed")
		}
		apps = vc.RankApps()
	} else {
		var oses []*guest.OS
		for i, n := range b.Site.Nodes()[:4] {
			os, _ := vm.NativeOS(b.Kernel, b.Site.Fabric, n, netsim.Addr(fmt.Sprintf("n%d", i)), tcp.DefaultConfig(), guest.WatchdogConfig{})
			oses = append(oses, os)
		}
		pids := mpi.Launch(oses, 6000, makeApp)
		deadline := b.Kernel.Now() + 4*sim.Hour
		for b.Kernel.Now() < deadline {
			all := true
			for i, o := range oses {
				p, _ := o.Proc(pids[i])
				if !p.Exited() {
					all = false
					break
				}
			}
			if all {
				break
			}
			b.Kernel.RunFor(sim.Second)
		}
		for i, o := range oses {
			p, _ := o.Proc(pids[i])
			if !p.Exited() || p.ExitCode() != 0 {
				panic("native parallel job failed")
			}
			apps = append(apps, p.Program().(*mpi.Driver).App)
			_ = i
		}
	}
	switch a := apps[0].(type) {
	case *hpcc.HPL:
		if !a.Passed {
			panic("hpl verification failed")
		}
		return a.WallTime()
	case *hpcc.PTRANS:
		if !a.Passed {
			panic("ptrans verification failed")
		}
		return a.WallTime()
	case *hpcc.RandomAccess:
		if !a.Verified {
			panic("randomaccess verification failed")
		}
		return a.WallTime()
	}
	panic("unknown app")
}
