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
// The fabric is sized for thousands of ports: cluster names are interned
// to dense int32 indices at registration, and every address to a dense
// EndpointID the first time anyone resolves it (Endpoint). An address
// keeps its id for the fabric's life, attached or not, so a sender
// resolves its peer once and every packet then carries both ids: the
// per-packet path reads profiles and port state from flat arrays and does
// no string lookup at all. The string-keyed maps serve only the
// control-plane calls and cross-partition arrivals.
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
// delay. SrcID and DstID are Src's and Dst's ids on the fabric the packet
// travels: the sender resolves them (Endpoint) and Send routes by them
// alone. The addresses travel too, for drop rules, traces and the
// receiver's new connections.
type Packet struct {
	Src, Dst     Addr
	SrcID, DstID EndpointID
	Size         int
	Payload      any
}

// EndpointID is an address's dense id on one fabric. Ids start at 1, so
// the zero value is no endpoint. They are host metadata, never part of
// an image: a stack restored on another fabric resolves its addresses
// again.
type EndpointID int32

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
	Bytes         uint64 // payload bytes of transmitted packets
	BytesDropped  uint64 // payload bytes of packets refused before transmit
}

// Port is one attachment point: a handle carrying its address's
// EndpointID. Liveness (up) and NIC serialisation state (busyUntil) live
// in the fabric's struct-of-arrays tables indexed by that id. A port
// whose Up flag is false silently discards traffic — this is how a paused
// VM "loses packets on the wire".
type Port struct {
	fabric  *Fabric
	id      EndpointID // 0 once detached
	addr    Addr
	cluster int32 // interned cluster index
	handler Handler

	// ExtraLatency and BandwidthFactor model para-virtualised I/O: Xen's
	// split-driver network path adds latency and costs bandwidth. The vm
	// package sets these on guest ports.
	ExtraLatency    sim.Time
	BandwidthFactor float64 // multiplies effective bandwidth; 0 means 1.0
}

// SetUp raises or lowers the port. A detached port stays down.
func (p *Port) SetUp(up bool) {
	if p.id != 0 {
		p.fabric.up[p.id] = up
	}
}

// Detach removes the port from the fabric. The address keeps its id for
// a later Attach; the stale handle is inert (down, never delivered to).
func (p *Port) Detach() {
	f := p.fabric
	if p.id == 0 || f.byID[p.id] != p {
		return
	}
	f.byID[p.id] = nil
	f.up[p.id] = false
	f.busy[p.id] = 0
	p.id = 0
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

	// The endpoint table, indexed by EndpointID (slot 0 is no endpoint):
	// ids interns addresses, byID holds the attached port (nil when
	// none), and up and busy are struct-of-arrays port state, so the
	// per-packet path reads/writes flat arrays, not port objects
	// scattered on the heap.
	ids  map[Addr]EndpointID
	byID []*Port
	up   []bool
	busy []sim.Time // NIC busyUntil per endpoint

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
// another partition's fabric owns it. The send side runs on the sending
// fabric (see Send); the receive side completes in the owning fabric's
// InjectDelivery at the arrival time Forward carries across.
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
		ids:        make(map[Addr]EndpointID),
		byID:       []*Port{nil},
		up:         []bool{false},
		busy:       []sim.Time{0},
	}
}

// Endpoint returns addr's id on this fabric, interning the address on
// first use. The id is the same for the fabric's life, whether or not a
// port is attached at addr.
func (f *Fabric) Endpoint(addr Addr) EndpointID {
	if id, ok := f.ids[addr]; ok {
		return id
	}
	id := EndpointID(len(f.byID))
	f.ids[addr] = id
	f.byID = append(f.byID, nil)
	f.up = append(f.up, false)
	f.busy = append(f.busy, 0)
	return id
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
	id := f.Endpoint(addr)
	if f.byID[id] != nil {
		panic(fmt.Sprintf("netsim: duplicate attach of %q", addr))
	}
	p := &Port{fabric: f, id: id, addr: addr, cluster: ci, handler: h}
	f.byID[id] = p
	f.up[id] = true
	f.busy[id] = 0
	return p
}

// Lookup returns the port for addr, if attached.
func (f *Fabric) Lookup(addr Addr) (*Port, bool) {
	p := f.byID[f.ids[addr]]
	return p, p != nil
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
// attached addresses, including para-virt port overheads. Only tests call
// it: the netsim delay tests and phys's topology tests.
func (f *Fabric) Delay(src, dst Addr, size int) (sim.Time, error) {
	ps, ok := f.Lookup(src)
	if !ok {
		return 0, fmt.Errorf("netsim: source %q not attached", src)
	}
	pd, ok := f.Lookup(dst)
	if !ok {
		return 0, fmt.Errorf("netsim: destination %q not attached", dst)
	}
	prof := f.profileBetween(ps.cluster, pd.cluster)
	d := prof.Latency + ps.ExtraLatency + pd.ExtraLatency
	if size > 0 {
		if bw := effectiveBandwidth(prof, ps, pd); bw > 0 {
			d += sim.Time(float64(size) / bw * float64(sim.Second))
		}
	}
	return d, nil
}

// effectiveBandwidth scales prof's bandwidth by both ports'
// BandwidthFactor. dst is nil for a destination another partition owns.
//
//dvc:hotpath
func effectiveBandwidth(prof LinkProfile, src, dst *Port) float64 {
	bw := prof.Bandwidth
	if src.BandwidthFactor > 0 {
		bw *= src.BandwidthFactor
	}
	if dst != nil && dst.BandwidthFactor > 0 {
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
// Send routes by pkt.SrcID and pkt.DstID alone and does no string
// lookup: profiles, NIC state and the delivery leg all run on interned
// indices. Only a destination attached to no local port falls back to
// the Remote, by address. A packet whose ids are unresolved panics.
//
// A destination another partition owns takes the same send leg — the
// loss draw from this kernel, this NIC's serialisation, the link profile
// from this fabric's cluster registry — so the sender's schedule does
// not depend on who owns the receiver. It differs in two places only:
// its cluster comes from the Remote, and the transmitted packet goes to
// Remote.Forward instead of a local delivery. A remote port's para-virt
// overheads (ExtraLatency, BandwidthFactor) are not visible here, so
// cross-partition endpoints are host-level ports; virtual clusters are
// allocated within one partition, so guest traffic never crosses.
//
//dvc:hotpath
func (f *Fabric) Send(pkt Packet) {
	sid, did := pkt.SrcID, pkt.DstID
	if sid == 0 || did == 0 {
		panic("netsim: Send of a packet with unresolved endpoints")
	}
	if !f.up[sid] {
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
	src, dst := f.byID[sid], f.byID[did]
	var dstCluster int32
	if dst != nil {
		dstCluster = dst.cluster
	} else if ci, ok := f.remoteCluster(pkt.Dst); ok {
		dstCluster = ci
	} else {
		f.stats.DroppedNoDest++
		f.stats.BytesDropped += uint64(pkt.Size)
		f.traceDrop(pkt, "no-dest")
		return
	}
	prof := f.profileBetween(src.cluster, dstCluster)
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
		if bw := effectiveBandwidth(prof, src, dst); bw > 0 {
			txTime = sim.Time(float64(pkt.Size) / bw * float64(sim.Second))
		}
	}
	start := f.kernel.Now()
	if f.busy[sid] > start {
		start = f.busy[sid]
	}
	depart := start + txTime
	f.busy[sid] = depart
	arrive := depart + prof.Latency + src.ExtraLatency
	if dst == nil {
		f.remote.Forward(pkt, arrive)
		return
	}
	rec := f.getDelivery()
	rec.pkt = pkt
	f.kernel.At(arrive+dst.ExtraLatency, rec.run)
}

// remoteCluster resolves the cluster index of a destination another
// partition owns, through the Remote and this fabric's cluster registry
// (phys.BuildTopo registers other partitions' clusters fabric-only). ok
// is false when there is no Remote, the Remote does not know the
// address, or its cluster is not registered here.
func (f *Fabric) remoteCluster(dst Addr) (int32, bool) {
	if f.remote == nil {
		return 0, false
	}
	name, ok := f.remote.RemoteCluster(dst)
	if !ok {
		return 0, false
	}
	ci, ok := f.clusterIdx[name]
	return ci, ok
}

// delivery is one pooled in-flight packet record. run is bound to the
// record once, at pool-entry creation; scheduling a delivery stores that
// same func value in the kernel's event slab, so neither the fabric nor
// the kernel allocates per packet once the pool is warm. The arrival leg
// finds the destination port by pkt.DstID, an array read.
type delivery struct {
	f    *Fabric
	pkt  Packet
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
	f, pkt := rec.f, rec.pkt
	rec.pkt = Packet{} // drop payload reference for the GC
	rec.next = f.freeDeliveries
	f.freeDeliveries = rec
	f.finishDelivery(pkt)
}

// finishDelivery is the shared destination leg: the attach, up and
// handler checks and the handler dispatch, identical for local arrivals
// (deliver) and cross-partition ones (InjectDelivery). The port at
// DstID is whichever is attached at Dst now: one detached mid-flight
// drops the packet, and one re-attached meanwhile receives it.
//
//dvc:hotpath
func (f *Fabric) finishDelivery(pkt Packet) {
	p := f.byID[pkt.DstID]
	if p == nil {
		f.stats.DroppedNoDest++
		f.traceDrop(pkt, "dest-detached")
		return
	}
	if !f.up[pkt.DstID] || p.handler == nil {
		f.stats.DroppedDown++
		f.traceDrop(pkt, "dest-down")
		return
	}
	f.stats.Delivered++
	p.handler(pkt)
}

// InjectDelivery completes the arrival of a packet transmitted on
// another partition's fabric. The caller (the partition router) executes
// it as a kernel event at the arrival time Forward carried over. The
// packet's ids are the sending fabric's, so they are resolved again here;
// the destination leg is then byte-identical to a local delivery's.
func (f *Fabric) InjectDelivery(pkt Packet) {
	pkt.SrcID, pkt.DstID = f.Endpoint(pkt.Src), f.Endpoint(pkt.Dst)
	f.finishDelivery(pkt)
}
