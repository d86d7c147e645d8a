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
	"dvc/internal/rm"
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

// allocateOn places a nodes-wide VC on cluster without waiting for it to
// boot, and panics if the placement fails.
func (b *bed) allocateOn(name string, nodes int, cluster string) *core.VirtualCluster {
	vc, err := b.Manager.Allocate(core.VCSpec{Name: name, Nodes: nodes, VMRAM: vmRAM, Clusters: []string{cluster}}, nil)
	if err != nil {
		panic(err)
	}
	return vc
}

// launch starts app on every rank of vc and panics if the launch fails,
// as it does on a VC that has not finished booting.
func launch(vc *core.VirtualCluster, app func(int) mpi.App) {
	if _, err := vc.LaunchMPI(6000, app); err != nil {
		panic(err)
	}
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

// nativeOSes boots an unvirtualised OS on each of the first n hosts,
// addressed n0, n1, ...
func (b *bed) nativeOSes(n int) []*guest.OS {
	var oses []*guest.OS
	for i, node := range b.Site.Nodes()[:n] {
		os, _ := vm.NativeOS(b.Kernel, b.Site.Fabric, node, netsim.Addr(fmt.Sprintf("n%d", i)), tcp.DefaultConfig(), guest.WatchdogConfig{})
		oses = append(oses, os)
	}
	return oses
}

// migrationBed is the migration experiments' bed (E11, E13): equal alpha
// and beta clusters of nodes hosts, and a nodes-wide VC on alpha given
// 30 s to boot, then running app for settle.
func migrationBed(seed int64, name string, nodes int, app func(int) mpi.App, settle sim.Time) (*bed, *core.VirtualCluster) {
	b := newBed(seed, map[string]int{"alpha": nodes, "beta": nodes}, core.DefaultNTPLSC(), true)
	vc := b.allocateOn(name, nodes, "alpha")
	b.Kernel.RunFor(30 * sim.Second)
	launch(vc, app)
	b.Kernel.RunFor(settle)
	return b, vc
}

// migration is one whole-VC migration's outcome.
type migration struct {
	down, total     sim.Time
	rounds          int
	copied, skipped int64 // bytes moved, and bytes pre-copy elided
	ok              bool
}

// migrate moves vc to targets, by pre-copy live migration or by LSC
// stop-and-copy, and measures it. Stop-and-copy moves every image twice:
// a store write and a read.
func (b *bed) migrate(vc *core.VirtualCluster, targets []*phys.Node, live bool, limit sim.Time) migration {
	if live {
		r, err := b.LiveMigrate(vc, targets, limit)
		if err != nil || !r.OK {
			return migration{}
		}
		return migration{down: r.Downtime, total: r.TotalTime, rounds: r.Rounds, copied: r.BytesCopied, skipped: r.BytesSkipped, ok: true}
	}
	start := b.Kernel.Now()
	r, err := b.Migrate(vc, targets, limit)
	if err != nil || !r.OK {
		return migration{}
	}
	m := migration{down: r.Downtime, total: r.FinishedAt - start, rounds: 1, ok: true}
	for _, img := range r.Images {
		m.copied += 2 * img.SizeBytes()
	}
	return m
}

// epochs checkpoints vc cycles times, gap apart, and panics on a failed
// epoch. Each epoch is polled in 1 s steps on purpose: the epoch
// spacing, and so the tables built from it, depends on where the wait
// stops.
func (b *bed) epochs(vc *core.VirtualCluster, cycles int, gap sim.Time) []*core.CheckpointResult {
	var gens []*core.CheckpointResult
	for i := 0; i < cycles; i++ {
		var r *core.CheckpointResult
		if err := b.Coord.Checkpoint(vc, func(cr *core.CheckpointResult) { r = cr }); err != nil {
			panic(err)
		}
		for r == nil {
			b.Kernel.RunFor(sim.Second)
		}
		if !r.OK {
			panic("experiments: checkpoint epoch failed: " + r.Reason)
		}
		gens = append(gens, r)
		b.Kernel.RunFor(gap)
	}
	return gens
}

// failAndRecover fails vc's first host, tears vc down and restores
// generation gen onto the first up hosts of cluster. It returns the
// restore's staging time and whether the job then completes.
func (b *bed) failAndRecover(vc *core.VirtualCluster, gen int, cluster string) (sim.Time, bool) {
	vc.PhysicalNodes()[0].Fail()
	b.Kernel.RunFor(2 * sim.Second)
	vc.Teardown()
	targets := b.Site.UpNodes(cluster)[:vc.Spec().Nodes]
	rr, err := b.Recover(vc, gen, targets, 30*sim.Minute)
	if err != nil || !rr.OK {
		panic("experiments: restore failed")
	}
	return rr.StageTime, b.RunUntilJobDone(vc, 2*sim.Hour).AllOK()
}

// rmSite is the resource-manager experiments' site (E8, E9, E15): the
// named clusters of n gigabit hosts each, with the given software
// stacks (none by default), and NTP running.
func rmSite(k *sim.Kernel, n int, clusters []string, stacks ...string) *phys.Site {
	site := phys.DefaultSite(k)
	for _, c := range clusters {
		site.AddCluster(c, n, phys.DefaultSpec(), netsim.EthernetGigE())
	}
	for i, stack := range stacks {
		site.SetClusterStack(clusters[i], stack)
	}
	site.NTP.Start()
	return site
}

// startRM starts a resource manager over site. The DVC backend gets an
// NTP-scheduled coordinator whose checkpointed jobs run on in place,
// checkpointing every interval (0 = never).
func startRM(k *sim.Kernel, site *phys.Site, backend rm.Backend, interval sim.Time) *rm.RM {
	var mgr *core.Manager
	var coord *core.Coordinator
	if backend == rm.DVC {
		lsc := core.DefaultNTPLSC()
		lsc.ContinueAfterSave = true
		env := core.NewEnv(site, lsc)
		mgr, coord = env.Manager, env.Coord
	}
	cfg := rm.DefaultConfig(backend)
	cfg.CheckpointInterval = interval
	r := rm.New(k, site, mgr, coord, cfg)
	r.Start()
	return r
}

// drain runs k in 30 s steps until every resource manager has finished
// its jobs or the deadline passes.
func drain(k *sim.Kernel, deadline sim.Time, rms ...*rm.RM) {
	done := func() bool {
		for _, r := range rms {
			if !r.AllDone() {
				return false
			}
		}
		return true
	}
	for k.Now() < deadline && !done() {
		k.RunFor(30 * sim.Second)
	}
}

// pct returns 100*a/b guarded against b==0.
func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
