package experiments

import (
	"fmt"

	"dvc/internal/clock"
	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/tcp"
	"dvc/internal/vm"
)

// Experiment-wide hardware constants (documented in EXPERIMENTS.md).
const (
	vmRAM      = 256 << 20 // 2007-era HPC guest size
	guestFlops = 10.0      // GFlops per node
)

// bed is the common experiment environment: a site with DVC installed.
type bed struct{ *core.Env }

// bedOptions customises makeBed beyond the common defaults.
type bedOptions struct {
	clusters map[string]int
	topo     *phys.TopoSpec // generated topology, built before clusters
	lsc      core.LSCConfig
	ntp      bool                // start the NTP daemon
	ntpCfg   *clock.NTPConfig    // nil = LAN defaults
	tcpCfg   *tcp.Config         // nil = default transport
	profile  *netsim.LinkProfile // nil = gigabit Ethernet
	tracer   *obs.Tracer         // nil = tracing off
}

// makeBed builds the environment. Clusters are created in a fixed name
// order for determinism.
func makeBed(seed int64, o bedOptions) *bed {
	ntpCfg := clock.DefaultNTPConfig()
	if o.ntpCfg != nil {
		ntpCfg = *o.ntpCfg
	}
	site := phys.NewSite(sim.NewKernel(seed), clock.DefaultConfig(), ntpCfg)
	if o.topo != nil {
		if _, err := phys.BuildTopo(site, *o.topo); err != nil {
			panic(err)
		}
	}
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
	b := &bed{core.NewEnv(site, o.lsc)}
	if o.tcpCfg != nil {
		b.Manager.SetTCPConfig(*o.tcpCfg)
	}
	b.SetTracer(o.tracer)
	return b
}

// newBed builds the common environment: named Ethernet clusters, default
// transport, LAN NTP.
func newBed(seed int64, clusters map[string]int, lsc core.LSCConfig, ntp bool) *bed {
	return makeBed(seed, bedOptions{clusters: clusters, lsc: lsc, ntp: ntp})
}

// coreNTP is shorthand for the default NTP coordinator configuration.
func coreNTP() core.LSCConfig { return core.DefaultNTPLSC() }

// rmLSC is the coordinator the resource-manager experiments (E8, E9,
// E15) install: NTP-scheduled, with checkpointed jobs running on in place.
func rmLSC() core.LSCConfig {
	lsc := core.DefaultNTPLSC()
	lsc.ContinueAfterSave = true
	return lsc
}

// netsimEth is shorthand for the standard cluster fabric profile.
func netsimEth() netsim.LinkProfile { return netsim.EthernetGigE() }

// wanTopo is two datacenters joined by the WAN profile (2.5 ms,
// 100 MB/s), one cluster of hostsPerDC gigabit hosts each, named
// dc00-c00 and dc01-c00.
func wanTopo(hostsPerDC int) *phys.TopoSpec {
	return &phys.TopoSpec{DCs: 2, ClustersPerDC: 1, HostsPerCluster: hostsPerDC}
}

// boot allocates spec and runs the fixed boot window, BootTime + 1 s.
func (b *bed) boot(spec core.VCSpec) (*core.VirtualCluster, error) {
	vc, err := b.Manager.Allocate(spec, nil)
	if err != nil {
		return nil, err
	}
	b.Kernel.RunFor(vm.DefaultXenConfig().BootTime + sim.Second)
	if vc.State() != core.VCReady {
		return nil, fmt.Errorf("experiments: %s not ready after boot", spec.Name)
	}
	return vc, nil
}

// allocate boots a VC and panics if it does not become ready.
func (b *bed) allocate(name string, nodes int, wd guest.WatchdogConfig) *core.VirtualCluster {
	vc, err := b.boot(core.VCSpec{Name: name, Nodes: nodes, VMRAM: vmRAM, Watchdog: wd})
	if err != nil {
		panic(err)
	}
	return vc
}

// halo is the reference trial's job: rounds of 20 ms halo exchange with
// 4 KiB messages, enough to keep traffic flowing through the save window.
func halo(rounds int) func(int) mpi.App {
	return func(int) mpi.App { return hpcc.NewHalo(rounds, 20*sim.Millisecond, 4096) }
}

// trialResult is one reference LSC trial's outcome.
type trialResult struct {
	ckpt     core.CheckpointResult // zero if the checkpoint never completed
	imagesOK bool                  // the checkpoint committed consistent images
	ok       bool                  // and then the job finished and verified
}

// runTrial is the reference LSC trial: boot a vms-wide VC, launch app,
// checkpoint 2 s in, inspect the images, run the job to completion (which
// proves the restore) and verify every rank. It stops at the first stage
// that fails. Only setup (placement, boot, launch) returns an error.
func (b *bed) runTrial(name string, vms int, app func(int) mpi.App) (trialResult, error) {
	vc, err := b.boot(core.VCSpec{Name: name, Nodes: vms, VMRAM: vmRAM})
	if err != nil {
		return trialResult{}, err
	}
	if _, err := vc.LaunchMPI(6000, app); err != nil {
		return trialResult{}, err
	}
	b.Kernel.RunFor(2 * sim.Second)
	out := trialResult{}
	ckpt, err := b.Checkpoint(vc, 10*sim.Minute)
	if err != nil {
		return out, nil // a checkpoint that never completes fails the trial
	}
	out.ckpt = *ckpt
	if !ckpt.OK || core.InspectImages(ckpt.Images) != nil {
		return out, nil
	}
	out.imagesOK = true
	if !b.RunUntilJobDone(vc, 4*sim.Hour).AllOK() {
		return out, nil
	}
	for _, a := range vc.RankApps() {
		if !hpcc.Verified(a) {
			return out, nil
		}
	}
	out.ok = true
	return out, nil
}

// lscTrial runs the reference trial on a fresh single-cluster bed of
// nodes hosts, with a VC as wide as the cluster.
func lscTrial(seed int64, nodes int, o bedOptions, app func(int) mpi.App) trialResult {
	o.clusters = map[string]int{"alpha": nodes}
	out, err := makeBed(seed, o).runTrial("t", nodes, app)
	if err != nil {
		panic(err)
	}
	return out
}

// pct returns 100*a/b guarded against b==0.
func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
