package main

import (
	"fmt"
	"time"

	"dvc"
	"dvc/internal/core"
	"dvc/internal/experiments"
	"dvc/internal/hpcc"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
)

// opSim is one op's exact simulated outcome. Every field is a pure
// function of the op's inputs, so it feeds the determinism digest.
type opSim struct {
	downtime, skew, storeTime sim.Time
	attempts                  int64
	sentBytes, logicalBytes   int64 // bytes shipped into storage; bytes the manifests cover
	imageBytes                int64 // encoded Image.Data bytes across the set
	events                    uint64
	packets, netBytes         uint64
	droppedDown               uint64
	haloRounds                int64
	poolBytes, storeBytes     int64 // storage state after the op's prune
	barriers, gateWaits, fwd  uint64
	pings                     uint64 // cross-datacenter monitor pings delivered
	resets                    uint64 // reset TCP connections across the VC
}

func (s *opSim) fold(d *digest) {
	d.add(int64(s.downtime), int64(s.skew), int64(s.storeTime), s.attempts,
		s.sentBytes, s.logicalBytes, s.imageBytes, int64(s.events),
		int64(s.packets), int64(s.netBytes), int64(s.droppedDown), s.haloRounds,
		s.poolBytes, s.storeBytes, int64(s.barriers), int64(s.gateWaits), int64(s.fwd), int64(s.pings), int64(s.resets))
}

// runner executes one workload's ops against a bed built by the
// workload's setup. step runs op i, returns the host time of the op
// proper (checks excluded), its simulated outcome, and a non-nil error
// when the op's check fails.
type runner interface {
	step(i int, h *hostTrace) (time.Duration, opSim, error)
}

// workload is one benchmark input. An epoch is setup + warmup ops +
// ops timed ops on a bed built from one of seeds input seeds; epochs
// cycle through the input seeds, so every seed's inputs replay. A run
// holds at least minEpochs epochs, enough for 100 timed ops, so ten lie
// beyond the 90th percentile.
type workload struct {
	name      string
	seeds     int
	warmup    int
	ops       int
	minEpochs int
	// partitioned marks the workload whose ops run on the partitioned
	// engine; its traced run also compares 1- and 2-worker op times.
	partitioned bool
	setup       func(seed int64, h *hostTrace, tr *obs.Tracer) (runner, error)
}

var workloads = []*workload{
	{
		name:      "lsc26",
		seeds:     6,
		warmup:    5,
		ops:       40,
		minEpochs: 7,
		setup:     setupLSC26,
	},
	{
		name:      "delta-migrate",
		seeds:     3,
		warmup:    40,
		ops:       150,
		minEpochs: 4,
		setup:     setupDeltaMigrate,
	},
	{
		name:        "pscale260",
		seeds:       2,
		warmup:      1,
		ops:         9,
		minEpochs:   12,
		partitioned: true,
		setup: func(seed int64, _ *hostTrace, tr *obs.Tracer) (runner, error) {
			return &pscale{seed: seed, workers: 2, tr: tr}, nil
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const guestRAM = 256 << 20

// vcBed is a simulation running one virtual cluster with a ring halo
// exchange that never finishes.
type vcBed struct {
	s  *dvc.Simulation
	k  *sim.Kernel
	vc *dvc.VirtualCluster
}

// boot starts the bed's services, allocates the VC and launches the halo.
func (b *vcBed) boot(spec dvc.VCSpec, period sim.Time) error {
	b.s.Start()
	vc, err := b.s.Allocate(spec)
	if err != nil {
		return err
	}
	b.vc = vc
	if _, err := vc.LaunchMPI(6000, func(int) dvc.App { return dvc.NewHalo(1<<30, period, 4096) }); err != nil {
		return err
	}
	b.s.RunFor(dvc.Second)
	return nil
}

// counters reads the cumulative layer counters the per-op deltas are
// taken from.
func (b *vcBed) counters() opSim {
	st := b.s.Site().Fabric.Stats()
	var rounds int64
	for _, app := range b.vc.RankApps() {
		if h, ok := app.(*hpcc.Halo); ok {
			rounds += int64(h.I)
		}
	}
	return opSim{events: b.k.Fired(), packets: st.Sent, netBytes: st.Bytes, droppedDown: st.DroppedDown, haloRounds: rounds}
}

// resets counts reset TCP connections across the VC's guests.
func (b *vcBed) resets() uint64 {
	var n uint64
	for _, os := range b.vc.OSes() {
		if os != nil {
			n += os.Stack().Resets()
		}
	}
	return n
}

// finish fills o's counter deltas and storage state, and checks what
// every VC op must leave behind: halo rounds advanced, no resets.
func (b *vcBed) finish(o *opSim, before opSim, res *dvc.CheckpointResult) error {
	after := b.counters()
	o.events = after.events - before.events
	o.packets = after.packets - before.packets
	o.netBytes = after.netBytes - before.netBytes
	o.droppedDown = after.droppedDown - before.droppedDown
	o.haloRounds = after.haloRounds - before.haloRounds
	st := b.s.Manager().Store()
	o.poolBytes, o.storeBytes = st.UniqueBytes(), st.TotalBytes()
	o.downtime, o.skew, o.storeTime = res.Downtime, res.SaveSkew, res.StoreTime
	o.attempts = int64(res.Attempts)
	for _, img := range res.Images {
		o.imageBytes += int64(img.Data.Len())
	}
	if o.haloRounds <= 0 {
		return fmt.Errorf("halo made no progress")
	}
	if o.resets = b.resets(); o.resets != 0 {
		return fmt.Errorf("%d tcp resets", o.resets)
	}
	return nil
}

// lsc26: one 26-node gigabit cluster, one 26-VM VC, ring halo every
// 20 ms; each op is a full-image LSC save/restore cycle, 1 s of
// traffic, and a prune to the newest two generations.
type lsc26 struct{ vcBed }

func setupLSC26(seed int64, h *hostTrace, tr *obs.Tracer) (runner, error) {
	t := h.begin()
	s := dvc.NewSimulation(seed)
	s.AddCluster("alpha", 26)
	h.end("setup.topology", t)
	t = h.begin()
	b := &lsc26{vcBed{s: s, k: s.Manager().Kernel()}}
	s.SetTracer(tr)
	if err := b.boot(dvc.VCSpec{Name: "lsc26", Nodes: 26, VMRAM: guestRAM}, 20*dvc.Millisecond); err != nil {
		return nil, err
	}
	h.end("setup.boot", t)
	return b, nil
}

func (b *lsc26) step(i int, h *hostTrace) (time.Duration, opSim, error) {
	before := b.counters()
	t0 := time.Now()
	res, err := b.s.Checkpoint(b.vc)
	h.end("op.lsc", t0)
	t := h.begin()
	b.s.RunFor(dvc.Second)
	h.end("op.run", t)
	t = h.begin()
	b.s.PruneCheckpoints(b.vc, 2)
	h.end("op.prune", t)
	wall := time.Since(t0)

	var o opSim
	if err != nil {
		return wall, o, err
	}
	if !res.OK {
		return wall, o, fmt.Errorf("lsc failed: %s", res.Reason)
	}
	if err := core.InspectImages(res.Images); err != nil {
		return wall, o, err
	}
	for _, img := range res.Images {
		o.sentBytes += img.SizeBytes()
	}
	o.logicalBytes = o.sentBytes
	return wall, o, b.finish(&o, before, res)
}

// deltaMigrate: two datacenters (one 8-host cluster each) over the
// 100 MB/s, 2.5 ms WAN; an 8-VM VC at the default guest dirty rate with
// a 200 ms halo. Each op migrates the VC to the other datacenter with
// delta epochs, runs 1 s, and prunes to the newest two generations.
type deltaMigrate struct {
	vcBed
	at int // datacenter the VC currently runs in
}

func setupDeltaMigrate(seed int64, h *hostTrace, tr *obs.Tracer) (runner, error) {
	t := h.begin()
	s := dvc.NewSimulation(seed)
	cfg := dvc.NTPLSC()
	cfg.Delta = true
	s.SetLSC(cfg)
	if _, err := phys.BuildTopo(s.Site(), phys.TopoSpec{DCs: 2, ClustersPerDC: 1, HostsPerCluster: 8}); err != nil {
		return nil, err
	}
	s.Manager().AdoptNodes()
	h.end("setup.topology", t)
	t = h.begin()
	b := &deltaMigrate{vcBed: vcBed{s: s, k: s.Manager().Kernel()}}
	s.SetTracer(tr)
	spec := dvc.VCSpec{Name: "mig8", Nodes: 8, VMRAM: guestRAM, Clusters: []string{phys.ClusterName(0, 0)}}
	if err := b.boot(spec, 200*dvc.Millisecond); err != nil {
		return nil, err
	}
	h.end("setup.boot", t)
	return b, nil
}

func (b *deltaMigrate) step(i int, h *hostTrace) (time.Duration, opSim, error) {
	dst := phys.ClusterName(1-b.at, 0)
	targets := b.s.Site().UpNodes(dst)
	before := b.counters()
	t0 := time.Now()
	res, err := b.s.Migrate(b.vc, targets)
	h.end("op.lsc", t0)
	t := h.begin()
	b.s.RunFor(dvc.Second)
	h.end("op.run", t)
	t = h.begin()
	b.s.PruneCheckpoints(b.vc, 2)
	h.end("op.prune", t)
	wall := time.Since(t0)

	var o opSim
	if err != nil {
		return wall, o, err
	}
	if !res.OK {
		return wall, o, fmt.Errorf("migration failed: %s", res.Reason)
	}
	if b.vc.State() != core.VCReady {
		return wall, o, fmt.Errorf("vc %v after migration", b.vc.State())
	}
	for _, n := range b.vc.PhysicalNodes() {
		if n.Cluster() != dst {
			return wall, o, fmt.Errorf("vc left on %s, want %s", n.Cluster(), dst)
		}
	}
	b.at = 1 - b.at
	o.sentBytes, o.logicalBytes = res.SentBytes, res.LogicalBytes
	return wall, o, b.finish(&o, before, res)
}

// pscale: each op is one RunScalePartitioned run, an 8-VM LSC job per
// datacenter plus cross-datacenter monitor pings, with its own topology
// and a per-op seed.
type pscale struct {
	seed    int64
	workers int
	tr      *obs.Tracer
}

var pscaleSpec = experiments.ScaleSpec{DCs: 4, ClustersPerDC: 5, HostsPerCluster: 13}

// pscalePings is how many monitor pings a run sends: every datacenter
// pings the next one every 250 ms from 1 s to 30 s of virtual time
// (PSCALE's fixed schedule).
var pscalePings = uint64(pscaleSpec.DCs) * uint64((30*sim.Second-1*sim.Second)/(250*sim.Millisecond)+1)

// pscaleMaxLost bounds the pings a run may lose. Every link drops a packet
// with probability 1e-6 (netsim's LAN and WAN profiles), so now and then an
// op legitimately loses a ping; the exchange itself must lose none
// (Stats.DroppedClosed).
const pscaleMaxLost = 2

// deriveSeed derives the i-th input seed from a seed.
func deriveSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 }

func (p *pscale) step(i int, h *hostTrace) (time.Duration, opSim, error) {
	t0 := time.Now()
	r, err := experiments.RunScalePartitioned(deriveSeed(p.seed, i), pscaleSpec, p.workers, p.tr)
	h.end("op.pscale", t0)
	wall := time.Since(t0)
	var o opSim
	if err != nil {
		return wall, o, err
	}
	if !r.OK() {
		return wall, o, fmt.Errorf("pscale: checkpoint ok=%v job ok=%v", r.CheckpointOK, r.JobOK)
	}
	if r.Pings > pscalePings || r.Pings+pscaleMaxLost < pscalePings || r.Stats.DroppedClosed != 0 {
		return wall, o, fmt.Errorf("pscale: %d of %d pings delivered, %d dropped at closed partitions",
			r.Pings, pscalePings, r.Stats.DroppedClosed)
	}
	o.pings = r.Pings
	o.skew = r.SaveSkew
	o.events = r.Events
	o.fwd = r.Stats.Forwarded
	o.barriers, o.gateWaits = r.Stats.Barriers, r.Stats.GateWaits
	return wall, o, nil
}
