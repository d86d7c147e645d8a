// Package netsim models the cluster interconnect: addressed ports attached
// to clusters, link profiles (latency, bandwidth, loss), and packet
// delivery as discrete events.
//
// The model is deliberately coarse — per-packet one-way latency plus
// serialisation delay, no queueing theory — because what the DVC
// experiments depend on is (a) realistic message timing for MPI overhead
// shapes and (b) the ability to lose packets on the wire, which is the
// whole premise of the paper's consistent-cut argument (Figure 2).
//
// The fabric is sized for thousands of ports: cluster names and port
// addresses are interned to dense int32 indices at attach/registration
// time, so the per-packet path resolves profiles and port state through
// flat arrays — the string-keyed maps are consulted only where the public
// string API enters (Send's src/dst resolution and the control-plane
// calls), never per hop inside it.
package netsim

import (
	"fmt"

	"dvc/internal/obs"
	"dvc/internal/sim"
)

// Addr identifies a network endpoint (a physical node's or a virtual
// machine's interface). Addresses are stable across migration: moving a
// port to another cluster keeps its address, exactly as DVC keeps a
// virtual node's identity when it is restarted elsewhere.
type Addr string

// Packet is one datagram on the fabric. Payload is opaque to the fabric
// (the TCP layer puts segments in it); Size in bytes drives serialisation
// delay.
type Packet struct {
	Src, Dst Addr
	Size     int
	Payload  any
}

// Handler receives delivered packets.
type Handler func(Packet)

// LinkProfile describes one fabric class.
type LinkProfile struct {
	// Latency is the one-way small-packet latency (NICs + switch).
	Latency sim.Time
	// Bandwidth is payload bandwidth in bytes per second.
	Bandwidth float64
	// LossProb is the independent per-packet loss probability.
	LossProb float64
}

// EthernetGigE matches 2007-era gigabit Ethernet with a commodity switch.
func EthernetGigE() LinkProfile {
	return LinkProfile{Latency: 55 * sim.Microsecond, Bandwidth: 117e6, LossProb: 1e-6}
}

// InfinibandDDR matches 2007-era DDR InfiniBand. The paper notes (§4)
// that checkpointing over InfiniBand needs substantial driver work inside
// VMs; experiment E12 uses this profile.
func InfinibandDDR() LinkProfile {
	return LinkProfile{Latency: 4 * sim.Microsecond, Bandwidth: 1400e6, LossProb: 0}
}

// InterClusterWAN is the default link between clusters on a campus.
func InterClusterWAN() LinkProfile {
	return LinkProfile{Latency: 350 * sim.Microsecond, Bandwidth: 117e6, LossProb: 1e-6}
}

// FatTreeSpine is the upper tier of a generated fat-tree fabric: traffic
// between two clusters (edge switches) of the same datacenter crosses two
// extra switch hops at full bisection bandwidth.
func FatTreeSpine() LinkProfile {
	return LinkProfile{Latency: 165 * sim.Microsecond, Bandwidth: 117e6, LossProb: 1e-6}
}

// MultiDatacenterWAN is the default link between datacenters (zones) of a
// generated topology: millisecond-class latency, sub-LAN bandwidth.
func MultiDatacenterWAN() LinkProfile {
	return LinkProfile{Latency: 2500 * sim.Microsecond, Bandwidth: 100e6, LossProb: 1e-6}
}

// Stats counts fabric activity. Sent and Bytes count only packets that
// actually transmit (pass the sender-up, drop-rule, destination and loss
// checks and consume NIC/wire time); packets refused before transmission
// accumulate in BytesDropped instead, so byte counters never overstate
// offered load. Packets dropped at delivery time (destination paused or
// detached mid-flight) did occupy the wire and therefore stay in Bytes.
type Stats struct {
	Sent          uint64
	Delivered     uint64
	DroppedLoss   uint64 // lost on the wire (random loss or drop rule)
	DroppedDown   uint64 // sender/destination port down (e.g. VM paused)
	DroppedNoDest uint64 // destination not attached
	Forwarded     uint64 // handed to another partition's fabric (Remote)
	Bytes         uint64 // payload bytes of transmitted packets
	BytesDropped  uint64 // payload bytes of packets refused before transmit
}

// Port is one attachment point: a handle carrying its dense fabric id.
// Liveness (up) and NIC serialisation state (busyUntil) live in the
// fabric's struct-of-arrays tables indexed by that id. A port whose Up
// flag is false silently discards traffic — this is how a paused VM
// "loses packets on the wire".
type Port struct {
	fabric  *Fabric
	id      int32 // dense fabric index; -1 once detached
	addr    Addr
	cluster int32 // interned cluster index
	handler Handler

	// ExtraLatency and BandwidthFactor model para-virtualised I/O: Xen's
	// split-driver network path adds latency and costs bandwidth. The vm
	// package sets these on guest ports.
	ExtraLatency    sim.Time
	BandwidthFactor float64 // multiplies effective bandwidth; 0 means 1.0
}

// Addr returns the port's address.
func (p *Port) Addr() Addr { return p.addr }

// Cluster returns the cluster the port is currently attached to.
func (p *Port) Cluster() string { return p.fabric.clusterName[p.cluster] }

// Up reports whether the port is accepting traffic.
//
//dvc:hotpath
func (p *Port) Up() bool { return p.id >= 0 && p.fabric.up[p.id] }

// SetUp raises or lowers the port. A detached port stays down.
func (p *Port) SetUp(up bool) {
	if p.id >= 0 {
		p.fabric.up[p.id] = up
	}
}

// Move reattaches the port to another cluster, keeping its address. The
// cluster is resolved to its interned index once here, so subsequent
// sends pay no name lookup.
func (p *Port) Move(cluster string) error {
	ci, ok := p.fabric.clusterIdx[cluster]
	if !ok {
		return fmt.Errorf("netsim: unknown cluster %q", cluster)
	}
	p.cluster = ci
	return nil
}

// Detach removes the port from the fabric. The dense id returns to the
// free list; the stale handle is inert (down, never delivered to).
func (p *Port) Detach() {
	f := p.fabric
	if p.id < 0 || f.byID[p.id] != p {
		return
	}
	delete(f.addrID, p.addr)
	f.byID[p.id] = nil
	f.up[p.id] = false
	f.busy[p.id] = 0
	f.freeIDs = append(f.freeIDs, p.id)
	p.id = -1
}

// Fabric is the interconnect. It is built from named clusters, each with
// a link profile, joined by an inter-cluster profile — and, for generated
// multi-datacenter topologies, an inter-zone profile between clusters
// assigned to different zones.
type Fabric struct {
	kernel *sim.Kernel

	// Interned cluster tables, indexed by registration order.
	clusterIdx  map[string]int32
	clusterName []string
	profiles    []LinkProfile
	zoneOf      []int32

	inter     LinkProfile // cross-cluster, same zone (fat-tree spine)
	interZone LinkProfile // cross-zone (multi-datacenter WAN)

	// Ports by dense id, with the address map as the string-API entry
	// point. up and busy are struct-of-arrays port state: the per-packet
	// path reads/writes flat arrays, not port objects scattered on the
	// heap.
	addrID  map[Addr]int32
	byID    []*Port
	freeIDs []int32
	up      []bool
	busy    []sim.Time // NIC busyUntil per port

	stats  Stats
	tracer *obs.Tracer

	// freeDeliveries is the pool of in-flight packet records (see
	// delivery): Send pops one, the arrival event pushes it back.
	freeDeliveries *delivery

	// DropRule, when set, force-drops matching packets. Experiments use
	// it to cut specific messages at a snapshot boundary (E3).
	DropRule func(Packet) bool

	// remote, when set, resolves destination addresses owned by other
	// partitions of a partitioned run (see Remote and SetRemote).
	remote Remote
}

// Remote is the partitioned-run escape hatch: when Send finds the
// destination address unattached locally, it asks the Remote whether
// another partition's fabric owns it. The send-side physics (loss draw,
// NIC serialisation, link latency from the local cluster registry —
// remote clusters are registered fabric-only for exactly this) happen on
// the sending fabric with the sending kernel's RNG, so the sender's
// byte-for-byte behaviour is independent of who owns the receiver; the
// receive side completes in the owning fabric's InjectDelivery at the
// arrival time Forward carries across.
type Remote interface {
	// RemoteCluster reports the cluster the remote address lives in
	// (for link-profile resolution), or ok=false when the address is
	// genuinely unknown — the packet then drops as no-dest.
	RemoteCluster(addr Addr) (cluster string, ok bool)
	// Forward hands a transmitted packet to the owning partition for
	// injection (InjectDelivery) at the precomputed arrival time.
	Forward(pkt Packet, arrive sim.Time)
}

// SetRemote installs (nil removes) the cross-partition resolver. A
// fabric without one — the default — treats unknown destinations as
// no-dest drops, exactly as before.
func (f *Fabric) SetRemote(r Remote) { f.remote = r }

// NewFabric creates an empty fabric with the default inter-cluster and
// inter-zone links.
func NewFabric(k *sim.Kernel) *Fabric {
	return &Fabric{
		kernel:     k,
		clusterIdx: make(map[string]int32),
		inter:      InterClusterWAN(),
		interZone:  MultiDatacenterWAN(),
		addrID:     make(map[Addr]int32),
	}
}

// AddCluster registers a cluster with the given intra-cluster profile.
// Re-registering an existing name replaces its profile.
func (f *Fabric) AddCluster(name string, profile LinkProfile) {
	if ci, ok := f.clusterIdx[name]; ok {
		f.profiles[ci] = profile
		return
	}
	f.clusterIdx[name] = int32(len(f.clusterName))
	f.clusterName = append(f.clusterName, name)
	f.profiles = append(f.profiles, profile)
	f.zoneOf = append(f.zoneOf, 0)
}

// SetInterCluster replaces the same-zone inter-cluster profile.
func (f *Fabric) SetInterCluster(profile LinkProfile) { f.inter = profile }

// SetInterZone replaces the cross-zone (inter-datacenter) profile. It
// only matters once clusters are assigned distinct zones.
func (f *Fabric) SetInterZone(profile LinkProfile) { f.interZone = profile }

// SetClusterZone assigns a cluster to a zone (datacenter). All clusters
// start in zone 0; packets between clusters of different zones use the
// inter-zone profile instead of the inter-cluster one.
func (f *Fabric) SetClusterZone(name string, zone int) error {
	ci, ok := f.clusterIdx[name]
	if !ok {
		return fmt.Errorf("netsim: unknown cluster %q", name)
	}
	f.zoneOf[ci] = int32(zone)
	return nil
}

// ClusterZone reports the zone a cluster is assigned to.
func (f *Fabric) ClusterZone(name string) int {
	if ci, ok := f.clusterIdx[name]; ok {
		return int(f.zoneOf[ci])
	}
	return 0
}

// Stats returns a snapshot of the fabric counters.
func (f *Fabric) Stats() Stats { return f.stats }

// SetTracer attaches an observability tracer (nil disables tracing).
// Fabric drops become net.drop instant events with a reason attribute.
func (f *Fabric) SetTracer(t *obs.Tracer) { f.tracer = t }

// traceDrop records one dropped packet. Drops are site-level events (the
// fabric has addresses, not nodes), so the record's node/dom are empty
// and the endpoints travel as attributes.
func (f *Fabric) traceDrop(pkt Packet, reason string) {
	if f.tracer == nil {
		return
	}
	f.tracer.Emit(f.kernel.Now(), obs.EvNetDrop, "", "", "drop",
		obs.Str("reason", reason), obs.Str("src", string(pkt.Src)), obs.Str("dst", string(pkt.Dst)))
	f.tracer.Inc("net.drops", 1)
	f.tracer.Inc("net.drops."+reason, 1)
}

// Attach creates an up port at addr in cluster. Attaching an address twice
// panics: addresses are identities.
func (f *Fabric) Attach(addr Addr, cluster string, h Handler) *Port {
	ci, ok := f.clusterIdx[cluster]
	if !ok {
		panic(fmt.Sprintf("netsim: attach to unknown cluster %q", cluster))
	}
	if _, dup := f.addrID[addr]; dup {
		panic(fmt.Sprintf("netsim: duplicate attach of %q", addr))
	}
	p := &Port{fabric: f, addr: addr, cluster: ci, handler: h}
	if n := len(f.freeIDs); n > 0 {
		p.id = f.freeIDs[n-1]
		f.freeIDs = f.freeIDs[:n-1]
		f.byID[p.id] = p
	} else {
		p.id = int32(len(f.byID))
		f.byID = append(f.byID, p)
		f.up = append(f.up, false)
		f.busy = append(f.busy, 0)
	}
	f.up[p.id] = true
	f.busy[p.id] = 0
	f.addrID[addr] = p.id
	return p
}

// Lookup returns the port for addr, if attached.
func (f *Fabric) Lookup(addr Addr) (*Port, bool) {
	id, ok := f.addrID[addr]
	if !ok {
		return nil, false
	}
	return f.byID[id], true
}

// profileBetween picks the link profile governing traffic between two
// interned cluster indices: intra-cluster, same-zone spine, or cross-zone
// WAN. Pure array reads — no map hits on the per-packet path.
//
//dvc:hotpath
func (f *Fabric) profileBetween(a, b int32) LinkProfile {
	if a == b {
		return f.profiles[a]
	}
	if f.zoneOf[a] != f.zoneOf[b] {
		return f.interZone
	}
	return f.inter
}

// PathBandwidth reports the effective bulk-transfer bandwidth between two
// attached addresses (bytes/s), including per-port factors. Bulk flows
// (image copies, migrations) use this instead of per-packet simulation.
func (f *Fabric) PathBandwidth(src, dst Addr) (float64, error) {
	ps, ok := f.Lookup(src)
	if !ok {
		return 0, fmt.Errorf("netsim: source %q not attached", src)
	}
	pd, ok := f.Lookup(dst)
	if !ok {
		return 0, fmt.Errorf("netsim: destination %q not attached", dst)
	}
	return f.effectiveBandwidth(ps, pd), nil
}

// ClusterBandwidth reports the raw profile bandwidth between two clusters
// (the same cluster gives the intra-cluster profile).
func (f *Fabric) ClusterBandwidth(a, b string) float64 {
	ca, okA := f.clusterIdx[a]
	if a == b {
		if !okA {
			return 0
		}
		return f.profiles[ca].Bandwidth
	}
	cb, okB := f.clusterIdx[b]
	if okA && okB {
		return f.profileBetween(ca, cb).Bandwidth
	}
	return f.inter.Bandwidth
}

// Delay computes the one-way delay for a packet of size bytes between two
// attached addresses, including para-virt port overheads.
func (f *Fabric) Delay(src, dst Addr, size int) (sim.Time, error) {
	ps, ok := f.Lookup(src)
	if !ok {
		return 0, fmt.Errorf("netsim: source %q not attached", src)
	}
	pd, ok := f.Lookup(dst)
	if !ok {
		return 0, fmt.Errorf("netsim: destination %q not attached", dst)
	}
	return f.delay(ps, pd, size), nil
}

func (f *Fabric) delay(src, dst *Port, size int) sim.Time {
	prof := f.profileBetween(src.cluster, dst.cluster)
	d := prof.Latency + src.ExtraLatency + dst.ExtraLatency
	if size > 0 {
		if bw := f.effectiveBandwidth(src, dst); bw > 0 {
			d += sim.Time(float64(size) / bw * float64(sim.Second))
		}
	}
	return d
}

//dvc:hotpath
func (f *Fabric) effectiveBandwidth(src, dst *Port) float64 {
	bw := f.profileBetween(src.cluster, dst.cluster).Bandwidth
	if src.BandwidthFactor > 0 {
		bw *= src.BandwidthFactor
	}
	if dst.BandwidthFactor > 0 {
		bw *= dst.BandwidthFactor
	}
	return bw
}

// Send puts a packet on the wire. Delivery (or loss) is resolved as a
// future event. The sender's NIC serialises transmissions (packets queue
// behind earlier ones from the same port), so a burst of segments honours
// the link bandwidth and stays in order. The in-flight leg is a pooled
// delivery record with a pre-bound callback — no closure is captured per
// packet, so the per-packet path allocates nothing in steady state.
//
// Accounting: Sent/Bytes count at the moment the packet clears the
// send-side checks and claims wire time; refused packets (down sender,
// drop rule, unknown destination, random loss) count their payload in
// BytesDropped instead. A destination that goes down mid-flight still
// loses the packet — "packets to a saved VM are lost on the wire" — but
// that loss is delivery-side: the bytes were genuinely transmitted.
//
// The two address-map hits here are the only string lookups per packet;
// everything downstream (profiles, NIC state, the delivery leg) runs on
// interned indices.
//
//dvc:hotpath
func (f *Fabric) Send(pkt Packet) {
	sid, ok := f.addrID[pkt.Src]
	if !ok || !f.up[sid] {
		// A down/detached sender cannot transmit at all.
		f.stats.DroppedDown++
		f.stats.BytesDropped += uint64(pkt.Size)
		f.traceDrop(pkt, "sender-down")
		return
	}
	if f.DropRule != nil && f.DropRule(pkt) {
		f.stats.DroppedLoss++
		f.stats.BytesDropped += uint64(pkt.Size)
		f.traceDrop(pkt, "rule")
		return
	}
	did, ok := f.addrID[pkt.Dst]
	if !ok {
		if f.remote != nil {
			if cluster, remote := f.remote.RemoteCluster(pkt.Dst); remote {
				f.sendRemote(pkt, sid, cluster)
				return
			}
		}
		f.stats.DroppedNoDest++
		f.stats.BytesDropped += uint64(pkt.Size)
		f.traceDrop(pkt, "no-dest")
		return
	}
	src, dst := f.byID[sid], f.byID[did]
	prof := f.profileBetween(src.cluster, dst.cluster)
	if prof.LossProb > 0 && f.kernel.Rand().Float64() < prof.LossProb {
		f.stats.DroppedLoss++
		f.stats.BytesDropped += uint64(pkt.Size)
		f.traceDrop(pkt, "loss")
		return
	}
	f.stats.Sent++
	f.stats.Bytes += uint64(pkt.Size)
	// NIC serialisation: the packet finishes transmitting txTime after
	// the NIC frees up, then propagates for the latency term.
	var txTime sim.Time
	if pkt.Size > 0 {
		if bw := f.effectiveBandwidth(src, dst); bw > 0 {
			txTime = sim.Time(float64(pkt.Size) / bw * float64(sim.Second))
		}
	}
	start := f.kernel.Now()
	if f.busy[sid] > start {
		start = f.busy[sid]
	}
	depart := start + txTime
	f.busy[sid] = depart
	arrive := depart + prof.Latency + src.ExtraLatency + dst.ExtraLatency
	rec := f.getDelivery()
	rec.pkt = pkt
	rec.dst = did
	f.kernel.At(arrive, rec.run)
}

// delivery is one pooled in-flight packet record. run is bound to the
// record once, at pool-entry creation; scheduling a delivery stores that
// same func value in the kernel's event slab, so neither the fabric nor
// the kernel allocates per packet once the pool is warm. dst carries the
// destination's dense id resolved at send time, so the arrival leg is an
// array read; the address map is only re-consulted if the slot changed
// hands mid-flight.
type delivery struct {
	f    *Fabric
	pkt  Packet
	dst  int32
	next *delivery // free-list link
	run  func()
}

// getDelivery pops a record off the free list, minting one (and its bound
// callback) only when the pool is dry.
//
//dvc:hotpath
func (f *Fabric) getDelivery() *delivery {
	if rec := f.freeDeliveries; rec != nil {
		f.freeDeliveries = rec.next
		rec.next = nil
		return rec
	}
	//lint:allow noalloc minted once per pool entry, only when the free list is dry
	rec := &delivery{f: f}
	rec.run = rec.deliver //lint:allow noalloc the bound callback is created once here and reused for every flight
	return rec
}

// deliver resolves one arrival. The record is recycled before the handler
// runs: handlers routinely transmit replies, and the reply's in-flight leg
// then reuses this very record.
//
//dvc:hotpath
func (rec *delivery) deliver() {
	f, pkt, did := rec.f, rec.pkt, rec.dst
	rec.pkt = Packet{} // drop payload reference for the GC
	rec.next = f.freeDeliveries
	f.freeDeliveries = rec

	p := f.byID[did]
	if p == nil || p.addr != pkt.Dst {
		// The id was freed (and possibly reused) mid-flight: fall back to
		// the address map in case the destination re-attached under a new
		// id. Same semantics as resolving by address at arrival time.
		id, ok := f.addrID[pkt.Dst]
		if !ok {
			f.stats.DroppedNoDest++
			f.traceDrop(pkt, "dest-detached")
			return
		}
		did, p = id, f.byID[id]
	}
	f.finishDelivery(p, did, pkt)
}

// finishDelivery is the shared destination leg: the up/handler checks
// and the handler dispatch, identical for local arrivals (deliver) and
// cross-partition ones (InjectDelivery).
//
//dvc:hotpath
func (f *Fabric) finishDelivery(p *Port, did int32, pkt Packet) {
	if !f.up[did] || p.handler == nil {
		f.stats.DroppedDown++
		f.traceDrop(pkt, "dest-down")
		return
	}
	f.stats.Delivered++
	p.handler(pkt)
}

// sendRemote transmits a packet whose destination another partition
// owns. The whole send side happens here, on the sending fabric, so the
// sender's schedule and RNG draws are byte-identical to a monolithic
// run: the loss draw comes from the sending kernel, NIC serialisation
// claims the sender's wire time, and the link profile resolves through
// the local cluster registry (remote clusters are registered
// fabric-only by the zone-sliced topology builder). One deliberate
// asymmetry: the destination port's para-virt overheads (ExtraLatency,
// BandwidthFactor) are not visible across partitions, so cross-partition
// endpoints are host-level ports — which is what the partitioned
// experiments attach (VM guest traffic never crosses a zone boundary:
// virtual clusters are allocated within one partition).
func (f *Fabric) sendRemote(pkt Packet, sid int32, cluster string) {
	ci, ok := f.clusterIdx[cluster]
	if !ok {
		f.stats.DroppedNoDest++
		f.stats.BytesDropped += uint64(pkt.Size)
		f.traceDrop(pkt, "no-dest")
		return
	}
	src := f.byID[sid]
	prof := f.profileBetween(src.cluster, ci)
	if prof.LossProb > 0 && f.kernel.Rand().Float64() < prof.LossProb {
		f.stats.DroppedLoss++
		f.stats.BytesDropped += uint64(pkt.Size)
		f.traceDrop(pkt, "loss")
		return
	}
	f.stats.Sent++
	f.stats.Bytes += uint64(pkt.Size)
	var txTime sim.Time
	if pkt.Size > 0 {
		bw := prof.Bandwidth
		if src.BandwidthFactor > 0 {
			bw *= src.BandwidthFactor
		}
		if bw > 0 {
			txTime = sim.Time(float64(pkt.Size) / bw * float64(sim.Second))
		}
	}
	start := f.kernel.Now()
	if f.busy[sid] > start {
		start = f.busy[sid]
	}
	depart := start + txTime
	f.busy[sid] = depart
	f.stats.Forwarded++
	f.remote.Forward(pkt, depart+prof.Latency+src.ExtraLatency)
}

// InjectDelivery completes the arrival of a packet transmitted on
// another partition's fabric. The caller (the partition router) executes
// it as a kernel event at the arrival time Forward carried over; the
// destination leg is byte-identical to a local delivery's.
func (f *Fabric) InjectDelivery(pkt Packet) {
	id, ok := f.addrID[pkt.Dst]
	if !ok {
		f.stats.DroppedNoDest++
		f.traceDrop(pkt, "dest-detached")
		return
	}
	f.finishDelivery(f.byID[id], id, pkt)
}

// MinCrossLatency reports the smallest one-way link latency of any
// profile governing traffic between clusters that part maps to different
// partitions — the conservative lookahead bound for a partitioned run
// (no cross-partition packet can arrive sooner than it was sent plus
// this). Zero when no cross-partition pair exists.
func (f *Fabric) MinCrossLatency(part func(cluster string) int) sim.Time {
	min := sim.Time(0)
	for a := range f.clusterName {
		for b := a + 1; b < len(f.clusterName); b++ {
			if part(f.clusterName[a]) == part(f.clusterName[b]) {
				continue
			}
			lat := f.profileBetween(int32(a), int32(b)).Latency
			if min == 0 || lat < min {
				min = lat
			}
		}
	}
	return min
}
