package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/sim"
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

	// Every job runs natively and in a VC, each run its own simulation.
	jobs := []struct{ job, label string }{
		{"seq", "sequential"},
		{"pingpong", ""},
		{"hpl", "hpl-N160x4"},
		{"ptrans", "ptrans-N64x4"},
		{"randomaccess", "randomaccess"},
	}
	type arm struct {
		job  string
		virt bool
	}
	var arms []arm
	for _, j := range jobs {
		arms = append(arms, arm{j.job, false}, arm{j.job, true})
	}
	m := sweep(opts, arms, 1, func(a arm, _ int, _ *obs.Tracer) perf {
		switch a.job {
		case "seq":
			return perf{t: runSeqJob(opts.Seed, a.virt)}
		case "pingpong":
			return runPingPong(opts.Seed, a.virt, netsim.EthernetGigE())
		}
		return perf{t: runParallelHPCC(opts.Seed, a.virt, a.job)}
	})
	ov := map[string]float64{}
	for i, j := range jobs {
		native, virt := m[2*i][0], m[2*i+1][0]
		if j.job == "pingpong" {
			// The ping-pong microbenchmark: small-message latency and
			// large-message bandwidth (lower bandwidth = overhead).
			ov["latency"] = over(native.t.Seconds(), virt.t.Seconds())
			ov["bandwidth"] = over(virt.bw, native.bw)
			tbl.Row("pingpong-8B", "half-RTT", native.t/2, virt.t/2, pctStr(ov["latency"]))
			tbl.Row("pingpong-4MiB", "bandwidth", fmtMBs(native.bw), fmtMBs(virt.bw), pctStr(ov["bandwidth"]))
			continue
		}
		ov[j.job] = over(native.t.Seconds(), virt.t.Seconds())
		tbl.Row(j.label, "runtime", native.t, virt.t, pctStr(ov[j.job]))
	}
	res.table(tbl, opts.out())
	seqOv, latOv, hplOv, ptOv, raOv := ov["seq"], ov["latency"], ov["hpl"], ov["ptrans"], ov["randomaccess"]
	bwN, bwV := m[2][0].bw, m[3][0].bw

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

// perf is one run's measurement: a time (runtime or ping-pong RTT) and,
// for ping-pong, a bandwidth.
type perf struct {
	t  sim.Time
	bw float64
}

func pctStr(v float64) string { return fmt.Sprintf("%+.1f%%", v) }

func fmtMBs(bw float64) string { return fmt.Sprintf("%.1fMB/s", bw/1e6) }

// runSeqJob times a sequential compute job natively or in a single VM.
func runSeqJob(seed int64, virt bool) sim.Time {
	b := newBed(seed, map[string]int{"alpha": 1}, core.DefaultNTPLSC(), true)
	job := hpcc.NewSeqJob(60, 1e10, guestFlops) // 60 GFlop = 60s at 10 GF/s
	if virt {
		vc := b.allocate("seq", 1, guest.WatchdogConfig{})
		vc.OSes()[0].Spawn(job)
	} else {
		b.nativeOSes(1)[0].Spawn(job)
	}
	b.Kernel.RunFor(sim.Hour)
	if !job.Finished {
		panic("seq job did not finish")
	}
	return job.WallTime()
}

// runPingPong measures small-message RTT and large-message bandwidth.
func runPingPong(seed int64, virt bool, profile netsim.LinkProfile) perf {
	run := func(msg, iters int) *hpcc.PingPong {
		b := makeBed(seed, bedOptions{clusters: map[string]int{"alpha": 2}, lsc: core.DefaultNTPLSC(), ntp: true, profile: &profile})
		app0 := hpcc.NewPingPong(msg, iters)
		apps := []mpi.App{app0, hpcc.NewPingPong(msg, iters)}
		if virt {
			vc := b.allocate("pp", 2, guest.WatchdogConfig{})
			launch(vc, func(r int) mpi.App { return apps[r] })
		} else {
			mpi.Launch(b.nativeOSes(2), 6000, func(r int) mpi.App { return apps[r] })
		}
		b.Kernel.RunFor(10 * sim.Minute)
		if !app0.Done {
			panic("pingpong did not finish")
		}
		return app0
	}
	return perf{t: run(8, 200).AvgRTT, bw: run(4<<20, 10).Bandwidth}
}

// runParallelHPCC times a 4-rank workload natively or in a VC.
func runParallelHPCC(seed int64, virt bool, kind string) sim.Time {
	b := newBed(seed, map[string]int{"alpha": 4}, core.DefaultNTPLSC(), true)
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
		launch(vc, makeApp)
		js := b.RunUntilJobDone(vc, 4*sim.Hour)
		if !js.AllOK() {
			panic("parallel job failed")
		}
		apps = vc.RankApps()
	} else {
		oses := b.nativeOSes(4)
		pids := mpi.Launch(oses, 6000, makeApp)
		b.Kernel.RunFor(4 * sim.Hour)
		for i, o := range oses {
			p, _ := o.Proc(pids[i])
			if !p.Exited() || p.ExitCode() != 0 {
				panic("native parallel job failed")
			}
			apps = append(apps, p.Program().(*mpi.Driver).App)
		}
	}
	if !hpcc.Verified(apps[0]) {
		panic(kind + " verification failed")
	}
	switch a := apps[0].(type) {
	case *hpcc.HPL:
		return a.WallTime()
	case *hpcc.PTRANS:
		return a.WallTime()
	case *hpcc.RandomAccess:
		return a.WallTime()
	}
	panic("unknown app")
}
