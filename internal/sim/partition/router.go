package partition

import (
	"fmt"

	"dvc/internal/netsim"
	"dvc/internal/sim"
)

// NetMap routes packets between the per-partition fabrics of a
// partitioned run. It is a static address directory — built on the
// spawning goroutine before Coordinator.Run starts, immutable afterwards
// — plus one netsim.Remote adapter per partition: Send on a bound fabric
// resolves unknown destinations through the directory and stages the
// packet as a timestamped inter-kernel message; the destination fabric
// completes it with InjectDelivery when the message executes.
type NetMap struct {
	routes  map[netsim.Addr]netRoute
	fabrics []*netsim.Fabric // indexed by partition id; each written by its own driver in Bind
}

type netRoute struct {
	part    int
	cluster string
}

// NewNetMap creates an empty directory for the coordinator's partitions.
func NewNetMap(c *Coordinator) *NetMap {
	return &NetMap{
		routes:  make(map[netsim.Addr]netRoute),
		fabrics: make([]*netsim.Fabric, len(c.Partitions())),
	}
}

// Register declares that addr lives in cluster on partition part. All
// registration happens before Coordinator.Run — the directory is read
// concurrently by every partition once drivers start.
func (m *NetMap) Register(addr netsim.Addr, cluster string, part int) {
	if part < 0 || part >= len(m.fabrics) {
		panic(fmt.Sprintf("partition: route %q to unknown partition %d", addr, part))
	}
	if prev, dup := m.routes[addr]; dup && prev != (netRoute{part: part, cluster: cluster}) {
		panic(fmt.Sprintf("partition: conflicting routes for %q", addr))
	}
	m.routes[addr] = netRoute{part: part, cluster: cluster}
}

// Bind attaches a partition's fabric to the directory: cross-partition
// destinations resolve through Register'd routes, inbound packets inject
// into f. The partition's own driver calls it, after building the fabric
// and before running the kernel.
func (m *NetMap) Bind(p *Partition, f *netsim.Fabric) {
	m.fabrics[p.id] = f
	f.SetRemote(&netAdapter{m: m, p: p})
}

// netAdapter implements netsim.Remote for one partition's fabric.
type netAdapter struct {
	m *NetMap
	p *Partition
}

// RemoteCluster resolves the cluster of an address another partition
// owns. An address routed to this same partition is local-but-detached:
// reporting it unknown keeps the no-dest drop semantics of a monolithic
// fabric.
func (a *netAdapter) RemoteCluster(addr netsim.Addr) (string, bool) {
	r, ok := a.m.routes[addr]
	if !ok || r.part == a.p.id {
		return "", false
	}
	return r.cluster, true
}

// Forward stages the transmitted packet for the owning partition. The
// injected callback runs on the destination's goroutine, whose own
// driver wrote the fabric pointer it reads.
func (a *netAdapter) Forward(pkt netsim.Packet, arrive sim.Time) {
	r := a.m.routes[pkt.Dst] // present: RemoteCluster just resolved it
	m, dst := a.m, r.part
	a.p.Send(dst, arrive, func() { m.fabrics[dst].InjectDelivery(pkt) })
}
