package experiments

import (
	"fmt"

	"dvc/internal/metrics"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/sim"
)

func init() {
	register("E12", "InfiniBand fabrics: performance vs LSC-safety (§4)", runE12)
}

// runE12 addresses §4's InfiniBand discussion: IB delivers far better
// latency and bandwidth, but "Extending DVC's parallel checkpointing to
// work with InfiniBand will require much work developing drivers capable
// of executing in virtual machines" — an OS-bypass transport holds
// connection state the hypervisor cannot freeze. Here:
//
//   - TCP over Ethernet: the paper's working configuration (LSC-safe).
//   - TCP over IB (IPoIB-style): faster, still through the guest kernel,
//     so snapshots stay consistent.
//   - Raw IB verbs (modelled as the reliable-delivery-but-unfreezable
//     path): a snapshot cuts it inconsistently — messages are lost, as in
//     the E3 control.
func runE12(opts Options) *Result {
	res := &Result{}

	// Microbenchmark both fabrics, with native endpoints (which isolate
	// the fabric) and virtualised ones.
	type ppArm struct {
		virt    bool
		profile netsim.LinkProfile
	}
	eth, ib := netsim.EthernetGigE(), netsim.InfinibandDDR()
	pp := sweep(opts, []ppArm{{false, eth}, {false, ib}, {true, eth}, {true, ib}}, 1, func(a ppArm, _ int, _ *obs.Tracer) perf {
		return runPingPong(opts.Seed, a.virt, a.profile)
	})
	latEth, bwEth := pp[0][0].t, pp[0][0].bw
	latIB, bwIB := pp[1][0].t, pp[1][0].bw
	latEthV, bwEthV := pp[2][0].t, pp[2][0].bw
	latIBV, bwIBV := pp[3][0].t, pp[3][0].bw

	// LSC safety: the reliable in-kernel transport (fabric-independent
	// mechanics) vs the verbs-style OS-bypass path at a cut.
	cuts := sweep(opts, []cutArm{{}, {udp: true}}, 1, func(a cutArm, _ int, _ *obs.Tracer) cutOutcome {
		return a.run(opts.Seed)
	})
	tcpCut, rawCut := cuts[0][0], cuts[1][0]

	tbl := metrics.NewTable("E12: fabric and transport choices",
		"configuration", "half-RTT", "bandwidth", "snapshot-consistent")
	tbl.Row("TCP / GigE, native", latEth/2, fmtMBs(bwEth), tcpCut.consistent())
	tbl.Row("TCP / IB-DDR, native", latIB/2, fmtMBs(bwIB), tcpCut.consistent())
	tbl.Row("TCP / GigE, VM", latEthV/2, fmtMBs(bwEthV), tcpCut.consistent())
	tbl.Row("TCP / IB-DDR, VM (IPoIB)", latIBV/2, fmtMBs(bwIBV), tcpCut.consistent())
	tbl.Row("raw verbs / IB-DDR", fmt.Sprintf("~%v", netsim.InfinibandDDR().Latency), fmtMBs(netsim.InfinibandDDR().Bandwidth), rawCut.consistent())
	res.table(tbl, opts.out())

	res.check("IB beats Ethernet on latency", latIB < latEth,
		"%v vs %v", latIB/2, latEth/2)
	res.check("IB beats Ethernet on bandwidth", bwIB > bwEth,
		"%.0f vs %.0f MB/s", bwIB/1e6, bwEth/1e6)
	res.check("kernel TCP path stays snapshot-consistent on any fabric",
		tcpCut.consistent(), "")
	res.check("OS-bypass transport is not snapshot-consistent",
		!rawCut.consistent(), "lost %d of %d", rawCut.lost, rawCut.sent)
	res.check("virtualisation costs more of IB's latency headroom than Ethernet's",
		ratio(latIBV, latIB) > ratio(latEthV, latEth),
		"IB %.1fx vs Eth %.1fx", ratio(latIBV, latIB), ratio(latEthV, latEth))
	return res
}

func ratio(a, b sim.Time) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
