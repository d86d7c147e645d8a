package experiments

import (
	"dvc/internal/clock"
	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/storage"
	"dvc/internal/tcp"
	"dvc/internal/vm"
)

// Experiment-wide hardware constants (documented in EXPERIMENTS.md).
const (
	vmRAM      = 256 << 20 // 2007-era HPC guest size
	guestFlops = 10.0      // GFlops per node
)

// bed is the common experiment test environment: one or more Ethernet
// clusters, NTP-disciplined clocks, DVC with an LSC coordinator.
type bed struct {
	k     *sim.Kernel
	site  *phys.Site
	store *storage.Store
	mgr   *core.Manager
	co    *core.Coordinator
}

// bedOptions customises makeBed beyond the common defaults.
type bedOptions struct {
	clusters map[string]int
	lsc      core.LSCConfig
	ntp      bool                // start the NTP daemon
	ntpCfg   *clock.NTPConfig    // nil = LAN defaults
	tcpCfg   *tcp.Config         // nil = default transport
	profile  *netsim.LinkProfile // nil = gigabit Ethernet
	tracer   *obs.Tracer         // nil = tracing off
}

// probeInterval is the kernel probe's sampling period on traced beds.
const probeInterval = 500 * sim.Millisecond

// makeBed builds the environment. Clusters are created in a fixed name
// order for determinism.
func makeBed(seed int64, o bedOptions) *bed {
	k := sim.NewKernel(seed)
	ntpCfg := clock.DefaultNTPConfig()
	if o.ntpCfg != nil {
		ntpCfg = *o.ntpCfg
	}
	site := phys.NewSite(k, clock.DefaultConfig(), ntpCfg)
	profile := netsim.EthernetGigE()
	if o.profile != nil {
		profile = *o.profile
	}
	for _, name := range []string{"alpha", "beta", "gamma", "delta"} {
		if n, ok := o.clusters[name]; ok {
			site.AddCluster(name, n, phys.DefaultSpec(), profile)
		}
	}
	if o.ntp {
		site.NTP.Start()
	}
	store := storage.New(k, storage.DefaultConfig())
	mgr := core.NewManager(k, site, store, vm.DefaultXenConfig())
	if o.tcpCfg != nil {
		mgr.SetTCPConfig(*o.tcpCfg)
	}
	if o.tracer != nil {
		// Attach tracing to every layer and sample the kernel. The probe
		// schedules ordinary events, so traced and untraced runs have
		// different schedules — but any two traced runs are identical.
		mgr.SetTracer(o.tracer)
		obs.StartKernelProbe(k, o.tracer, probeInterval)
	}
	return &bed{k: k, site: site, store: store, mgr: mgr, co: core.NewCoordinator(mgr, o.lsc)}
}

// newBed builds the common environment: named Ethernet clusters, default
// transport, LAN NTP.
func newBed(seed int64, clusters map[string]int, lsc core.LSCConfig, ntp bool) *bed {
	return makeBed(seed, bedOptions{clusters: clusters, lsc: lsc, ntp: ntp})
}

// coreNTP is shorthand for the default NTP coordinator configuration.
func coreNTP() core.LSCConfig { return core.DefaultNTPLSC() }

// netsimEth is shorthand for the standard cluster fabric profile.
func netsimEth() netsim.LinkProfile { return netsim.EthernetGigE() }

// newWANBed builds a two-datacenter bed joined by the WAN profile
// (2.5 ms, 100 MB/s): one cluster of hostsPerDC gigabit hosts per DC,
// generated through the standard topology builder so cluster names are
// the canonical dc00-c00 / dc01-c00.
func newWANBed(seed int64, hostsPerDC int, lsc core.LSCConfig) *bed {
	k := sim.NewKernel(seed)
	site := phys.DefaultSite(k)
	if _, err := phys.BuildTopo(site, phys.TopoSpec{DCs: 2, ClustersPerDC: 1, HostsPerCluster: hostsPerDC}); err != nil {
		panic(err)
	}
	site.NTP.Start()
	store := storage.New(k, storage.DefaultConfig())
	mgr := core.NewManager(k, site, store, vm.DefaultXenConfig())
	return &bed{k: k, site: site, store: store, mgr: mgr, co: core.NewCoordinator(mgr, lsc)}
}

// newBedProfile builds a single-cluster bed with a custom link profile.
func newBedProfile(seed int64, nodes int, lsc core.LSCConfig, profile netsim.LinkProfile) *bed {
	k := sim.NewKernel(seed)
	site := phys.DefaultSite(k)
	site.AddCluster("alpha", nodes, phys.DefaultSpec(), profile)
	site.NTP.Start()
	store := storage.New(k, storage.DefaultConfig())
	mgr := core.NewManager(k, site, store, vm.DefaultXenConfig())
	return &bed{k: k, site: site, store: store, mgr: mgr, co: core.NewCoordinator(mgr, lsc)}
}

// allocate boots a VC and waits for it.
func (b *bed) allocate(name string, nodes int, wd guest.WatchdogConfig) *core.VirtualCluster {
	vc, err := b.mgr.Allocate(core.VCSpec{Name: name, Nodes: nodes, VMRAM: vmRAM, Watchdog: wd}, nil)
	if err != nil {
		panic(err)
	}
	b.k.RunFor(vm.DefaultXenConfig().BootTime + sim.Second)
	if vc.State() != core.VCReady {
		panic("VC did not become ready")
	}
	return vc
}

// runJob drives until the VC's job is done (or limit). The wait is
// event-driven: every guest process exit halts the kernel, so the loop
// re-checks its predicate only when something actually finished instead
// of waking every simulated second. Stopping at the exact completion
// instant (rather than the next poll boundary) also means the kernel
// fires no post-completion timer/NTP events, which is most of the
// events-fired reduction EXPERIMENTS.md reports.
func (b *bed) runJob(vc *core.VirtualCluster, limit sim.Time) core.JobStatus {
	deadline := b.k.Now() + limit
	defer notifyExits(vc, nil)
	for {
		js := vc.JobStatus()
		if js.Done() && vc.State() == core.VCReady {
			return js
		}
		if b.k.Now() >= deadline {
			return vc.JobStatus()
		}
		// Re-arm each pass: a restore mid-wait replaces the guest OSes,
		// and arming is idempotent on the ones already hooked.
		notifyExits(vc, b.k.Halt)
		b.k.RunUntil(deadline)
	}
}

// notifyExits installs (or clears, fn == nil) an exit-notification hook
// on every live guest OS of the VC.
func notifyExits(vc *core.VirtualCluster, fn func()) {
	for _, os := range vc.OSes() {
		if os != nil {
			os.SetExitNotify(fn)
		}
	}
}

// checkpointOnce issues one checkpoint and runs until it reports. The
// completion callback halts the kernel, so the wait stops at the exact
// report instant instead of polling on a one-second period.
func (b *bed) checkpointOnce(vc *core.VirtualCluster, limit sim.Time) *core.CheckpointResult {
	var res *core.CheckpointResult
	if err := b.co.Checkpoint(vc, func(r *core.CheckpointResult) { res = r; b.k.Halt() }); err != nil {
		panic(err)
	}
	deadline := b.k.Now() + limit
	for res == nil && b.k.Now() < deadline {
		b.k.RunUntil(deadline)
	}
	return res
}

// lscTrial runs one full LSC trial: boot n VMs, run a halo workload,
// checkpoint ~2s in, then run the job to completion. It reports whether
// save AND restore were transparent (checkpoint OK, images consistent,
// job finished successfully) along with the measured skew.
type lscTrialResult struct {
	ok       bool
	reason   string
	skew     sim.Time
	downtime sim.Time
	attempts int
}

func lscTrial(seed int64, nodes int, lsc core.LSCConfig, ntp bool) lscTrialResult {
	return lscTrialT(seed, nodes, lsc, ntp, nil)
}

// lscTrialT is lscTrial with an optional tracer (one tracer can span many
// trials; each trial restarts virtual time and the exporters handle it).
func lscTrialT(seed int64, nodes int, lsc core.LSCConfig, ntp bool, tr *obs.Tracer) lscTrialResult {
	b := makeBed(seed, bedOptions{clusters: map[string]int{"alpha": nodes}, lsc: lsc, ntp: ntp, tracer: tr})
	vc := b.allocate("t", nodes, guest.WatchdogConfig{})
	// Enough halo rounds to keep traffic flowing through the longest
	// plausible save window (~30 s of 20 ms rounds).
	vc.LaunchMPI(6000, func(int) mpi.App { return hpcc.NewHalo(1500, 20*sim.Millisecond, 4096) })
	b.k.RunFor(2 * sim.Second)
	res := b.checkpointOnce(vc, 10*sim.Minute)
	out := lscTrialResult{}
	if res == nil {
		out.reason = "checkpoint never completed"
		return out
	}
	out.skew = res.SaveSkew
	out.downtime = res.Downtime
	out.attempts = res.Attempts
	if !res.OK {
		out.reason = res.Reason
		return out
	}
	if err := core.InspectImages(res.Images); err != nil {
		out.reason = err.Error()
		return out
	}
	js := b.runJob(vc, 2*sim.Hour)
	if !js.AllOK() {
		out.reason = "job failed after restore"
		return out
	}
	for _, app := range vc.RankApps() {
		h, ok := app.(*hpcc.Halo)
		if !ok || !h.Finished {
			out.reason = "rank did not finish"
			return out
		}
	}
	out.ok = true
	return out
}

// pct returns 100*a/b guarded against b==0.
func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
