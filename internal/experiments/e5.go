package experiments

import (
	"fmt"

	"dvc/internal/ckpt"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/imgcodec"
	"dvc/internal/metrics"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

func init() {
	register("E5", "DVC (whole-VM) vs application/user/kernel-level checkpoint efficiency (§2, abstract)", runE5)
}

// runE5 reproduces the abstract's promised comparison: "a measure of the
// efficiency of DVC checkpoints vs. application specific checkpoints for
// common applications". The live-data sizes are grounded by actually
// running HPL mid-factorisation and measuring its serialised state; the
// method overheads then follow §2's taxonomy.
func runE5(opts Options) *Result {
	res := &Result{}
	const (
		ranks  = 4
		diskBW = 60e6 // node-local dump bandwidth
	)

	// Ground truth: run HPL to ~half of the factorisation and measure
	// one rank's real serialised application state.
	live := sweep(opts, []int{128, 256}, 1, func(n, _ int, _ *obs.Tracer) int64 {
		k := sim.NewKernel(opts.Seed)
		f := netsim.NewFabric(k)
		f.AddCluster("c", netsim.EthernetGigE())
		var oses []*guest.OS
		for i := 0; i < ranks; i++ {
			addr := netsim.Addr(fmt.Sprintf("r%d", i))
			s := tcp.NewStack(k, f, addr, tcp.DefaultConfig())
			f.Attach(addr, "c", s.Deliver)
			oses = append(oses, guest.New(k, s, func() sim.Time { return k.Now() }, 1.0, guest.WatchdogConfig{}))
		}
		// Slow enough that we can stop mid-run deterministically.
		rate := (2.0 / 3.0 * float64(n) * float64(n) * float64(n) / float64(ranks)) / 20 / 1e9
		pids := mpi.Launch(oses, 6000, func(int) mpi.App { return hpcc.NewHPL(n, 42, rate) })
		k.RunFor(10 * sim.Second) // ~half way
		p, _ := oses[0].Proc(pids[0])
		b, err := imgcodec.Append(nil, p.Program().(*mpi.Driver).App)
		if err != nil {
			panic(err)
		}
		return int64(len(b))
	})

	type workloadCase struct {
		name     string
		liveData int64
	}
	cases := []workloadCase{
		{"hpl-N128 (measured)", live[0][0]},
		{"hpl-N256 (measured)", live[1][0]},
		// Paper-scale extrapolation: N=8192 over 26 ranks, 8(N+1)N/P.
		{"hpl-N8192/26 (model)", 8 * 8192 * 8193 / 26},
	}

	tbl := metrics.NewTable("E5: checkpoint image size and time by method (guest RAM 1 GiB, disk 60 MB/s)",
		"workload", "method", "image", "save", "restore", "src-changes", "relink", "kmod", "parallel-transparent")
	var vmOverApp float64
	for _, c := range cases {
		fp := ckpt.DefaultFootprint(c.liveData, 1<<30)
		for _, est := range ckpt.Estimates(fp, diskBW) {
			tbl.Row(c.name, est.Method.String(), fmtBytes(est.ImageBytes),
				est.SaveTime, est.RestoreTime,
				est.SourceChanges, est.Relink, est.KernelModule, est.TransparentParallel)
			if est.Method == ckpt.VMLevel {
				vmOverApp = float64(est.ImageBytes) / float64(fp.LiveData)
			}
		}
	}
	res.table(tbl, opts.out())

	fpSmall := ckpt.DefaultFootprint(cases[0].liveData, 1<<30)
	ests := ckpt.Estimates(fpSmall, diskBW)
	res.check("sizes ordered app < user < kernel < vm",
		ests[0].ImageBytes < ests[1].ImageBytes &&
			ests[1].ImageBytes < ests[2].ImageBytes &&
			ests[2].ImageBytes < ests[3].ImageBytes,
		"%d < %d < %d < %d", ests[0].ImageBytes, ests[1].ImageBytes, ests[2].ImageBytes, ests[3].ImageBytes)
	res.check("only VM level is transparently parallel",
		ests[3].TransparentParallel && !ests[0].TransparentParallel &&
			!ests[1].TransparentParallel && !ests[2].TransparentParallel, "")
	res.check("VM images cost much more than app-level for the large case",
		vmOverApp > 3, "vm/app size ratio %.1fx", vmOverApp)
	res.check("measured state grows with problem size",
		cases[1].liveData > 2*cases[0].liveData,
		"N=128: %s, N=256: %s", fmtBytes(cases[0].liveData), fmtBytes(cases[1].liveData))
	return res
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
