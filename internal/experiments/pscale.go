package experiments

import (
	"fmt"

	"dvc/internal/core"
	"dvc/internal/metrics"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/sim/partition"
)

func init() {
	register("PSCALE", "Partitioned substrate: conservative-lookahead engine, one partition per datacenter", runPScaleExp)
}

// The partitioned scale run's fixed schedule: every datacenter's monitor
// pings the next datacenter's on a deterministic period (the
// cross-partition traffic), and every partition runs to the same virtual
// horizon so all pings deliver before any sub-kernel closes.
const (
	pingStart = 1 * sim.Second
	pingEvery = 250 * sim.Millisecond
	pingEnd   = 30 * sim.Second
	pHorizon  = 60 * sim.Second
)

// monAddr is datacenter d's monitor address.
func monAddr(d int) netsim.Addr { return netsim.Addr(fmt.Sprintf("mon-dc%02d", d)) }

// PScaleResult reports one partitioned scale run.
type PScaleResult struct {
	Nodes      int
	Partitions int // logical partitions (= datacenters)
	Lookahead  sim.Time

	// Events is the total fired across all sub-kernels; Pings counts
	// delivered cross-DC monitor pings.
	Events uint64
	Pings  uint64
	// Stats is the coordinator's barrier/stall accounting; its Forwarded
	// counts packets that crossed a partition boundary.
	Stats partition.Stats

	// CheckpointOK/JobOK hold across every datacenter's job; SaveSkew is
	// the worst skew any partition observed.
	CheckpointOK bool
	JobOK        bool
	SaveSkew     sim.Time
}

// OK reports whether every partition's checkpoint and job succeeded.
func (r *PScaleResult) OK() bool { return r.CheckpointOK && r.JobOK }

// RunScalePartitioned drives the SCALE workload on the partitioned
// engine: one sub-kernel per datacenter under a conservative-lookahead
// coordinator, every datacenter running the E2-shaped job (allocate an
// 8-VM VC on its own nodes, halo traffic, one checkpoint, run to
// completion) with cross-DC monitor pings as the inter-partition
// traffic. Work therefore scales with the partition count — that is
// what a multicore runner parallelises. workers bounds how many
// sub-kernels run concurrently (0 = one per partition); every trace
// byte, table cell and stat is identical at any workers value — the
// logical partitioning is fixed by the topology and the exchange orders
// messages by (arrival time, partition id, send seq), so the schedule is
// a pure function of (seed, spec). tr may be nil; it receives each
// partition's records whole, in partition order (dvctrace -convert
// restores the global time order).
func RunScalePartitioned(seed int64, spec ScaleSpec, workers int, tr *obs.Tracer) (*PScaleResult, error) {
	if spec.DCs < 2 {
		return nil, fmt.Errorf("experiments: partitioned scale needs >= 2 datacenters, got %d", spec.DCs)
	}
	la, err := phys.ZoneLookahead(spec)
	if err != nil {
		return nil, err
	}
	c := partition.NewCoordinator(partition.Config{Lookahead: la, Workers: workers}, spec.DCs)
	nm := partition.NewNetMap(c)
	for d := 0; d < spec.DCs; d++ {
		nm.Register(monAddr(d), phys.ClusterName(d, 0), d)
	}
	children := make([]*obs.Tracer, spec.DCs)
	for d := range children {
		children[d] = tr.Child()
	}

	type partOut struct {
		events uint64
		pings  uint64
		ckptOK bool
		jobOK  bool
		skew   sim.Time
		err    error
	}
	outs := make([]partOut, spec.DCs)

	c.Run(func(p *partition.Partition) {
		d := p.ID()
		o := &outs[d]
		// Independent seed per sub-kernel: the partition's whole RNG
		// stream is private, so its schedule cannot depend on any other
		// partition's draw order.
		k := sim.NewKernel(seed + int64(d)*1_000_003)
		site := phys.DefaultSite(k)
		if _, err := phys.BuildTopo(site, spec, d); err != nil {
			o.err = err
			return
		}
		site.NTP.Start()
		p.Bind(k)
		nm.Bind(p, site.Fabric) //lint:allow fleetscope NetMap reaches the per-partition fabrics by design; Bind writes only this partition's own slot and Forward closures execute on the destination's goroutine under the exchange protocol
		ctr := children[d]

		self, next := monAddr(d), monAddr((d+1)%spec.DCs)
		site.Fabric.Attach(self, phys.ClusterName(d, 0), func(netsim.Packet) {
			o.pings++
			ctr.Counter(k.Now(), obs.EvSimProbe, string(self), "", "xdc.ping", float64(o.pings))
		})
		ping := netsim.Packet{Src: self, Dst: next, SrcID: site.Fabric.Endpoint(self), DstID: site.Fabric.Endpoint(next), Size: 128}
		for t := pingStart; t <= pingEnd; t += pingEvery {
			k.At(t, func() { site.Fabric.Send(ping) })
		}

		b := &bed{core.NewEnv(site, core.DefaultNTPLSC())}
		b.SetTracer(ctr)
		t, err := b.runTrial(fmt.Sprintf("pscale-%02d", d), scaleVMs, halo(600))
		if err != nil {
			o.err = fmt.Errorf("experiments: pscale run on %s: %w", spec, err)
			return
		}
		o.ckptOK, o.jobOK, o.skew = t.imagesOK, t.ok, t.ckpt.SaveSkew
		// Every partition holds to the common horizon so late pings land
		// on a live kernel; a partition whose job already ran longer
		// simply passes through.
		k.RunUntil(pHorizon)
		o.events = k.Fired()
	})

	for _, ch := range children {
		tr.Merge(ch)
	}
	res := &PScaleResult{
		Nodes:      spec.Nodes(),
		Partitions: spec.DCs,
		Lookahead:  la,
		Stats:      c.Stats(),
	}
	for d := range outs {
		if outs[d].err != nil {
			return nil, outs[d].err
		}
		res.Events += outs[d].events
		res.Pings += outs[d].pings
	}
	res.CheckpointOK, res.JobOK = true, true
	for d := range outs {
		res.CheckpointOK = res.CheckpointOK && outs[d].ckptOK
		res.JobOK = res.JobOK && outs[d].jobOK
		if outs[d].skew > res.SaveSkew {
			res.SaveSkew = outs[d].skew
		}
	}
	return res, nil
}

// runPScaleExp is the registry wrapper: the 260-node two-DC shape by
// default, plus the 2600-node ten-DC shape with -full, each with one
// worker per datacenter.
func runPScaleExp(opts Options) *Result {
	res := &Result{}
	shapes := []ScaleSpec{
		{DCs: 2, ClustersPerDC: 5, HostsPerCluster: 26},
	}
	if opts.Full {
		shapes = append(shapes, ScaleSpec{DCs: 10, ClustersPerDC: 10, HostsPerCluster: 26})
	}
	tbl := metrics.NewTable("PSCALE: an 8-VM LSC job per datacenter on the partitioned engine",
		"topology", "nodes", "parts", "lookahead.ms", "events", "xdc.pkts", "barriers", "ckpt", "job")
	for _, sp := range shapes {
		r, err := RunScalePartitioned(opts.Seed, sp, 0, opts.Tracer)
		if err != nil {
			res.check(fmt.Sprintf("%s runs", sp), false, "%v", err)
			continue
		}
		tbl.Row(sp.String(), r.Nodes, r.Partitions,
			fmt.Sprintf("%.2f", r.Lookahead.Seconds()*1000), r.Events,
			r.Stats.Forwarded, r.Stats.Barriers, r.CheckpointOK, r.JobOK)
		res.check(fmt.Sprintf("%s save+restore transparent", sp), r.OK(),
			"ckpt=%v job=%v at %d nodes / %d partitions", r.CheckpointOK, r.JobOK, r.Nodes, r.Partitions)
		res.check(fmt.Sprintf("%s cross-partition traffic flows", sp), r.Stats.Forwarded > 0 && r.Pings > 0,
			"forwarded %d packets, delivered %d pings", r.Stats.Forwarded, r.Pings)
	}
	res.table(tbl, opts.out())
	return res
}
