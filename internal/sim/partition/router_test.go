package partition_test

import (
	"slices"
	"testing"

	"dvc/internal/netsim"
	"dvc/internal/sim"
	"dvc/internal/sim/partition"
)

// buildZonedFabric registers both clusters (with their zones) on one
// fabric — the remote one stays fabric-only, exactly as phys.BuildTopo
// leaves it for a partition — so link-profile resolution works on every
// partition identically.
func buildZonedFabric(k *sim.Kernel) *netsim.Fabric {
	f := netsim.NewFabric(k)
	f.AddCluster("west", netsim.EthernetGigE())
	f.AddCluster("east", netsim.EthernetGigE())
	f.SetClusterZone("west", 0)
	f.SetClusterZone("east", 1)
	return f
}

// TestCrossPartitionPacket: a packet sent to an address owned by another
// partition's fabric arrives there at exactly send time + WAN latency,
// with send-side accounting on the source fabric, delivery accounting on
// the destination's, and the crossing counted by the coordinator.
func TestCrossPartitionPacket(t *testing.T) {
	wan := netsim.MultiDatacenterWAN().Latency
	run := func(workers int) (arrivedAt sim.Time, aStats, bStats netsim.Stats, cStats partition.Stats) {
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
		return arrivedAt, fabrics[0].Stats(), fabrics[1].Stats(), c.Stats()
	}

	for _, workers := range []int{1, 2} {
		arrivedAt, a, b, cs := run(workers)
		if want := 1 + wan; arrivedAt != want {
			t.Fatalf("workers=%d packet arrived at %v, want %v", workers, arrivedAt, want)
		}
		if a.Sent != 1 || a.Delivered != 0 {
			t.Fatalf("workers=%d source stats = %+v, want Sent=1", workers, a)
		}
		if cs.Forwarded != 1 {
			t.Fatalf("workers=%d coordinator forwarded %d, want 1", workers, cs.Forwarded)
		}
		if b.Delivered != 1 || b.Sent != 0 {
			t.Fatalf("workers=%d destination stats = %+v, want Delivered=1", workers, b)
		}
	}
}

// TestCrossPartitionSizedPackets: back-to-back sized packets from a
// para-virtualised port (ExtraLatency, BandwidthFactor) to another
// partition arrive at the instants one fabric gives the same sends to a
// host-level port: the remote leg serialises on the sender's NIC and
// scales by the sender's bandwidth factor exactly as a local one does.
func TestCrossPartitionSizedPackets(t *testing.T) {
	sizes := []int{1500, 9000, 64, 4096}
	send := func(k *sim.Kernel, f *netsim.Fabric) {
		port := f.Attach("a0", "west", nil)
		port.ExtraLatency = 30 * sim.Microsecond
		port.BandwidthFactor = 0.6
		k.At(1, func() {
			for _, size := range sizes {
				f.Send(netsim.Packet{Src: "a0", Dst: "b0", SrcID: f.Endpoint("a0"), DstID: f.Endpoint("b0"), Size: size})
			}
		})
	}

	k := sim.NewKernel(0)
	f := buildZonedFabric(k)
	var want []sim.Time
	f.Attach("b0", "east", func(netsim.Packet) { want = append(want, k.Now()) })
	send(k, f)
	k.Run()

	wan := netsim.MultiDatacenterWAN().Latency
	c := partition.NewCoordinator(partition.Config{Lookahead: wan}, 2)
	nm := partition.NewNetMap(c)
	nm.Register("a0", "west", 0)
	nm.Register("b0", "east", 1)
	var got []sim.Time
	c.Run(func(p *partition.Partition) {
		k := sim.NewKernel(int64(p.ID()))
		f := buildZonedFabric(k)
		p.Bind(k)
		nm.Bind(p, f)
		if p.ID() == 0 {
			send(k, f)
		} else {
			f.Attach("b0", "east", func(netsim.Packet) { got = append(got, k.Now()) })
		}
		k.Run()
	})

	if len(want) != len(sizes) || !slices.Equal(got, want) {
		t.Fatalf("cross-partition arrivals %v, want the single fabric's %v", got, want)
	}
	for i := 1; i < len(want); i++ {
		if want[i] <= want[i-1] {
			t.Fatalf("arrivals %v do not serialise on the sender's NIC", want)
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
	if stats.DroppedNoDest != 1 || stats.Sent != 0 {
		t.Fatalf("stats = %+v, want one no-dest drop", stats)
	}
	if fwd := c.Stats().Forwarded; fwd != 0 {
		t.Fatalf("coordinator forwarded %d, want nothing", fwd)
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
