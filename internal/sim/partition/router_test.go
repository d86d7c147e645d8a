package partition_test

import (
	"testing"

	"dvc/internal/netsim"
	"dvc/internal/sim"
	"dvc/internal/sim/partition"
)

// buildZonedFabric registers both clusters (with their zones) on one
// fabric — the remote one stays fabric-only, exactly as the zone-sliced
// topology builder leaves it — so link-profile resolution works on every
// partition identically.
func buildZonedFabric(k *sim.Kernel) *netsim.Fabric {
	f := netsim.NewFabric(k)
	f.AddCluster("west", netsim.EthernetGigE())
	f.AddCluster("east", netsim.EthernetGigE())
	f.SetClusterZone("west", 0)
	f.SetClusterZone("east", 1)
	return f
}

// TestMinCrossLatency: the lookahead bound is the smallest latency of
// any profile joining clusters of different partitions — here the
// cross-zone WAN.
func TestMinCrossLatency(t *testing.T) {
	f := buildZonedFabric(sim.NewKernel(1))
	zoneOf := func(cluster string) int { return f.ClusterZone(cluster) }
	if got, want := f.MinCrossLatency(zoneOf), netsim.MultiDatacenterWAN().Latency; got != want {
		t.Fatalf("MinCrossLatency = %v, want the WAN latency %v", got, want)
	}
	// One partition owning everything has no cross traffic to bound.
	if got := f.MinCrossLatency(func(string) int { return 0 }); got != 0 {
		t.Fatalf("MinCrossLatency with a single partition = %v, want 0", got)
	}
}

// TestCrossPartitionPacket: a packet sent to an address owned by another
// partition's fabric arrives there at exactly send time + WAN latency,
// with send-side accounting on the source fabric and delivery accounting
// on the destination's.
func TestCrossPartitionPacket(t *testing.T) {
	wan := netsim.MultiDatacenterWAN().Latency
	run := func(workers int) (arrivedAt sim.Time, aStats, bStats netsim.Stats) {
		c := partition.NewCoordinator(partition.Config{Lookahead: wan, Workers: workers}, 2)
		nm := partition.NewNetMap(c)
		nm.Register("a0", "west", 0)
		nm.Register("b0", "east", 1)
		fabrics := make([]*netsim.Fabric, 2)
		c.Run(func(p *partition.Partition) {
			k := sim.NewKernel(int64(p.ID()))
			f := buildZonedFabric(k)
			fabrics[p.ID()] = f
			p.Bind(k)
			nm.Bind(p, f)
			switch p.ID() {
			case 0:
				f.Attach("a0", "west", nil)
				k.At(1, func() { f.Send(netsim.Packet{Src: "a0", Dst: "b0", SrcID: f.Endpoint("a0"), DstID: f.Endpoint("b0")}) })
			case 1:
				f.Attach("b0", "east", func(pkt netsim.Packet) { arrivedAt = k.Now() })
			}
			k.Run()
		})
		return arrivedAt, fabrics[0].Stats(), fabrics[1].Stats()
	}

	for _, workers := range []int{1, 2} {
		arrivedAt, a, b := run(workers)
		if want := 1 + wan; arrivedAt != want {
			t.Fatalf("workers=%d packet arrived at %v, want %v", workers, arrivedAt, want)
		}
		if a.Sent != 1 || a.Forwarded != 1 || a.Delivered != 0 {
			t.Fatalf("workers=%d source stats = %+v, want Sent=1 Forwarded=1", workers, a)
		}
		if b.Delivered != 1 || b.Sent != 0 {
			t.Fatalf("workers=%d destination stats = %+v, want Delivered=1", workers, b)
		}
	}
}

// TestCrossPartitionUnknownAddr: an address no partition registered
// drops as no-dest on the sending fabric, exactly like a monolithic
// fabric would drop it.
func TestCrossPartitionUnknownAddr(t *testing.T) {
	c := partition.NewCoordinator(partition.Config{Lookahead: 100}, 2)
	nm := partition.NewNetMap(c)
	nm.Register("a0", "west", 0)
	var stats netsim.Stats
	c.Run(func(p *partition.Partition) {
		k := sim.NewKernel(int64(p.ID()))
		f := buildZonedFabric(k)
		p.Bind(k)
		nm.Bind(p, f)
		if p.ID() == 0 {
			f.Attach("a0", "west", nil)
			k.At(1, func() {
				f.Send(netsim.Packet{Src: "a0", Dst: "nowhere", SrcID: f.Endpoint("a0"), DstID: f.Endpoint("nowhere"), Size: 8})
			})
			k.Run()
			stats = f.Stats()
		} else {
			k.Run()
		}
	})
	if stats.DroppedNoDest != 1 || stats.Forwarded != 0 || stats.Sent != 0 {
		t.Fatalf("stats = %+v, want one no-dest drop and nothing forwarded", stats)
	}
}

// TestCrossPartitionDownDest: a destination that is down when the packet
// lands loses it on the wire — delivery-side semantics match the local
// path ("packets to a saved VM are lost on the wire").
func TestCrossPartitionDownDest(t *testing.T) {
	wan := netsim.MultiDatacenterWAN().Latency
	c := partition.NewCoordinator(partition.Config{Lookahead: wan}, 2)
	nm := partition.NewNetMap(c)
	nm.Register("a0", "west", 0)
	nm.Register("b0", "east", 1)
	var dstStats netsim.Stats
	c.Run(func(p *partition.Partition) {
		k := sim.NewKernel(int64(p.ID()))
		f := buildZonedFabric(k)
		p.Bind(k)
		nm.Bind(p, f)
		switch p.ID() {
		case 0:
			f.Attach("a0", "west", nil)
			k.At(1, func() { f.Send(netsim.Packet{Src: "a0", Dst: "b0", SrcID: f.Endpoint("a0"), DstID: f.Endpoint("b0")}) })
			k.Run()
		case 1:
			port := f.Attach("b0", "east", func(netsim.Packet) {})
			port.SetUp(false)
			k.Run()
			dstStats = f.Stats()
		}
	})
	if dstStats.DroppedDown != 1 || dstStats.Delivered != 0 {
		t.Fatalf("destination stats = %+v, want one dest-down drop", dstStats)
	}
}
