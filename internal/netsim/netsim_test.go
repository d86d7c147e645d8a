package netsim

import (
	"testing"
	"testing/quick"

	"dvc/internal/sim"
)

func newTestFabric(t *testing.T) (*sim.Kernel, *Fabric) {
	t.Helper()
	k := sim.NewKernel(1)
	f := NewFabric(k)
	f.AddCluster("a", LinkProfile{Latency: 50 * sim.Microsecond, Bandwidth: 100e6})
	f.AddCluster("b", LinkProfile{Latency: 50 * sim.Microsecond, Bandwidth: 100e6})
	f.SetInterCluster(LinkProfile{Latency: 500 * sim.Microsecond, Bandwidth: 50e6})
	return k, f
}

// send resolves pkt's endpoints on f, as a sender does once, and sends it.
func send(f *Fabric, pkt Packet) {
	pkt.SrcID, pkt.DstID = f.Endpoint(pkt.Src), f.Endpoint(pkt.Dst)
	f.Send(pkt)
}

func TestDeliveryWithinCluster(t *testing.T) {
	k, f := newTestFabric(t)
	var got []Packet
	f.Attach("n1", "a", nil)
	f.Attach("n2", "a", func(p Packet) { got = append(got, p) })
	send(f, Packet{Src: "n1", Dst: "n2", Size: 0, Payload: "hello"})
	k.Run()
	if len(got) != 1 || got[0].Payload != "hello" {
		t.Fatalf("got %v, want one hello packet", got)
	}
	if k.Now() != 50*sim.Microsecond {
		t.Fatalf("delivery at %v, want 50us", k.Now())
	}
}

func TestSerializationDelay(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	f.Attach("n2", "a", func(Packet) {})
	send(f, Packet{Src: "n1", Dst: "n2", Size: 1_000_000}) // 1MB at 100MB/s = 10ms
	k.Run()
	want := 50*sim.Microsecond + 10*sim.Millisecond
	if k.Now() != want {
		t.Fatalf("delivery at %v, want %v", k.Now(), want)
	}
}

func TestInterClusterUsesInterProfile(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	f.Attach("n2", "b", func(Packet) {})
	send(f, Packet{Src: "n1", Dst: "n2"})
	k.Run()
	if k.Now() != 500*sim.Microsecond {
		t.Fatalf("inter-cluster delivery at %v, want 500us", k.Now())
	}
}

func TestDownPortLosesPackets(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	delivered := 0
	p2 := f.Attach("n2", "a", func(Packet) { delivered++ })
	p2.SetUp(false)
	send(f, Packet{Src: "n1", Dst: "n2"})
	k.Run()
	if delivered != 0 {
		t.Fatal("down port received a packet")
	}
	if f.Stats().DroppedDown != 1 {
		t.Fatalf("DroppedDown = %d, want 1", f.Stats().DroppedDown)
	}
}

func TestPortGoesDownMidFlight(t *testing.T) {
	// The loss decision for a paused destination happens at delivery time:
	// a packet already "on the wire" when the VM pauses is lost.
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	delivered := 0
	p2 := f.Attach("n2", "a", func(Packet) { delivered++ })
	send(f, Packet{Src: "n1", Dst: "n2"})
	k.After(10*sim.Microsecond, func() { p2.SetUp(false) }) // before 50us delivery
	k.Run()
	if delivered != 0 {
		t.Fatal("packet delivered to port that went down mid-flight")
	}
}

func TestDownSenderCannotTransmit(t *testing.T) {
	k, f := newTestFabric(t)
	p1 := f.Attach("n1", "a", nil)
	delivered := 0
	f.Attach("n2", "a", func(Packet) { delivered++ })
	p1.SetUp(false)
	send(f, Packet{Src: "n1", Dst: "n2"})
	k.Run()
	if delivered != 0 {
		t.Fatal("down sender transmitted")
	}
}

func TestUnknownDestinationCounted(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	send(f, Packet{Src: "n1", Dst: "ghost"})
	k.Run()
	if f.Stats().DroppedNoDest != 1 {
		t.Fatalf("DroppedNoDest = %d, want 1", f.Stats().DroppedNoDest)
	}
}

func TestDropRule(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	delivered := 0
	f.Attach("n2", "a", func(Packet) { delivered++ })
	f.DropRule = func(p Packet) bool { return p.Payload == "cut" }
	send(f, Packet{Src: "n1", Dst: "n2", Payload: "cut"})
	send(f, Packet{Src: "n1", Dst: "n2", Payload: "keep"})
	k.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d packets, want 1", delivered)
	}
	if f.Stats().DroppedLoss != 1 {
		t.Fatalf("DroppedLoss = %d, want 1", f.Stats().DroppedLoss)
	}
}

func TestRandomLoss(t *testing.T) {
	k := sim.NewKernel(2)
	f := NewFabric(k)
	f.AddCluster("lossy", LinkProfile{Latency: sim.Microsecond, Bandwidth: 1e9, LossProb: 0.5})
	f.Attach("n1", "lossy", nil)
	delivered := 0
	f.Attach("n2", "lossy", func(Packet) { delivered++ })
	const n = 2000
	for i := 0; i < n; i++ {
		send(f, Packet{Src: "n1", Dst: "n2"})
	}
	k.Run()
	if delivered < n/3 || delivered > 2*n/3 {
		t.Fatalf("delivered %d of %d at 50%% loss", delivered, n)
	}
}

func TestMoveKeepsAddress(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	delivered := 0
	p2 := f.Attach("vm1", "a", func(Packet) { delivered++ })
	p2.cluster = f.clusterIdx["b"]
	send(f, Packet{Src: "n1", Dst: "vm1"})
	k.Run()
	if delivered != 1 {
		t.Fatal("packet not delivered after move")
	}
	if k.Now() != 500*sim.Microsecond {
		t.Fatalf("moved port should be reached via inter-cluster link, delivery at %v", k.Now())
	}
}

func TestDetach(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	p2 := f.Attach("n2", "a", func(Packet) {})
	p2.Detach()
	if _, ok := f.Lookup("n2"); ok {
		t.Fatal("detached port still attached")
	}
	send(f, Packet{Src: "n1", Dst: "n2"})
	k.Run()
	if f.Stats().DroppedNoDest != 1 {
		t.Fatal("send to detached port should count as no-dest")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	_, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate attach did not panic")
		}
	}()
	f.Attach("n1", "a", nil)
}

func TestAttachUnknownClusterPanics(t *testing.T) {
	_, f := newTestFabric(t)
	defer func() {
		if recover() == nil {
			t.Fatal("attach to unknown cluster did not panic")
		}
	}()
	f.Attach("n1", "nope", nil)
}

func TestParaVirtOverheads(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	p2 := f.Attach("n2", "a", func(Packet) {})
	p2.ExtraLatency = 30 * sim.Microsecond
	p2.BandwidthFactor = 0.5
	send(f, Packet{Src: "n1", Dst: "n2", Size: 1_000_000})
	k.Run()
	// 50us + 30us + 1MB / (100MB/s * 0.5) = 80us + 20ms
	want := 80*sim.Microsecond + 20*sim.Millisecond
	if k.Now() != want {
		t.Fatalf("delivery at %v, want %v", k.Now(), want)
	}
}

func TestDelayQuery(t *testing.T) {
	_, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	f.Attach("n2", "b", nil)
	d, err := f.Delay("n1", "n2", 0)
	if err != nil || d != 500*sim.Microsecond {
		t.Fatalf("Delay = %v, %v", d, err)
	}
	if _, err := f.Delay("n1", "ghost", 0); err == nil {
		t.Fatal("Delay to unattached address should error")
	}
	if _, err := f.Delay("ghost", "n1", 0); err == nil {
		t.Fatal("Delay from unattached address should error")
	}
}

func TestStatsAccumulate(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	f.Attach("n2", "a", func(Packet) {})
	for i := 0; i < 5; i++ {
		send(f, Packet{Src: "n1", Dst: "n2", Size: 100})
	}
	k.Run()
	s := f.Stats()
	if s.Sent != 5 || s.Delivered != 5 || s.Bytes != 500 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestSendAccountingSkipsRefusedPackets pins the corrected accounting:
// packets refused before transmit (sender down, drop rule, unknown dest)
// must not count toward Sent/Bytes and must accrue BytesDropped instead.
func TestSendAccountingSkipsRefusedPackets(t *testing.T) {
	k, f := newTestFabric(t)
	p1 := f.Attach("n1", "a", nil)
	f.Attach("n2", "a", func(Packet) {})

	// Refused: unknown destination.
	send(f, Packet{Src: "n1", Dst: "ghost", Size: 100})
	// Refused: drop rule.
	f.DropRule = func(p Packet) bool { return p.Payload == "cut" }
	send(f, Packet{Src: "n1", Dst: "n2", Size: 200, Payload: "cut"})
	f.DropRule = nil
	// Refused: sender down.
	p1.SetUp(false)
	send(f, Packet{Src: "n1", Dst: "n2", Size: 300})
	p1.SetUp(true)
	// Transmitted and delivered.
	send(f, Packet{Src: "n1", Dst: "n2", Size: 400})
	k.Run()

	s := f.Stats()
	if s.Sent != 1 || s.Bytes != 400 {
		t.Fatalf("Sent=%d Bytes=%d, want 1/400 (refused packets leaked into transmit stats): %+v", s.Sent, s.Bytes, s)
	}
	if s.BytesDropped != 600 {
		t.Fatalf("BytesDropped = %d, want 600: %+v", s.BytesDropped, s)
	}
	if s.Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1", s.Delivered)
	}
}

// TestDeliveryTimeDropStaysInBytes: a packet lost at delivery time (dest
// went down mid-flight) occupied the wire, so it stays in Sent/Bytes and
// does not accrue BytesDropped.
func TestDeliveryTimeDropStaysInBytes(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	p2 := f.Attach("n2", "a", func(Packet) { t.Fatal("delivered to down port") })
	send(f, Packet{Src: "n1", Dst: "n2", Size: 250})
	k.After(10*sim.Microsecond, func() { p2.SetUp(false) })
	k.Run()
	s := f.Stats()
	if s.Sent != 1 || s.Bytes != 250 {
		t.Fatalf("Sent=%d Bytes=%d, want 1/250 (wire occupancy must be counted)", s.Sent, s.Bytes)
	}
	if s.BytesDropped != 0 {
		t.Fatalf("BytesDropped = %d, want 0 for delivery-time loss", s.BytesDropped)
	}
	if s.DroppedDown != 1 {
		t.Fatalf("DroppedDown = %d, want 1", s.DroppedDown)
	}
}

// Property: delay is monotonic in packet size and symmetric for ports in
// the same cluster with no per-port overhead.
func TestPropertyDelayMonotonicSymmetric(t *testing.T) {
	_, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	f.Attach("n2", "a", nil)
	check := func(a, b uint16) bool {
		small, _ := f.Delay("n1", "n2", int(min(a, b)))
		large, _ := f.Delay("n1", "n2", int(max(a, b)))
		fwd, _ := f.Delay("n1", "n2", int(a))
		rev, _ := f.Delay("n2", "n1", int(a))
		return small <= large && fwd == rev
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNICSerializationOrdersAndPaces(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	var arrivals []sim.Time
	var order []any
	f.Attach("n2", "a", func(p Packet) {
		arrivals = append(arrivals, k.Now())
		order = append(order, p.Payload)
	})
	// A large packet followed immediately by a tiny one: without NIC
	// serialisation the tiny one would overtake.
	send(f, Packet{Src: "n1", Dst: "n2", Size: 1_000_000, Payload: "big"})
	send(f, Packet{Src: "n1", Dst: "n2", Size: 100, Payload: "small"})
	k.Run()
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("arrival order = %v, want [big small]", order)
	}
	// big departs at 10ms, arrives 10.05ms; small departs 10ms+1us,
	// arrives 10.051ms + 50us.
	if arrivals[0] != 10*sim.Millisecond+50*sim.Microsecond {
		t.Fatalf("big arrival at %v", arrivals[0])
	}
	if arrivals[1] <= arrivals[0] {
		t.Fatal("small packet overtook big packet")
	}
}

func TestNICIdleGapResetsQueue(t *testing.T) {
	k, f := newTestFabric(t)
	f.Attach("n1", "a", nil)
	var arrivals []sim.Time
	f.Attach("n2", "a", func(Packet) { arrivals = append(arrivals, k.Now()) })
	send(f, Packet{Src: "n1", Dst: "n2", Size: 100_000}) // 1ms tx
	k.RunFor(100 * sim.Millisecond)                      // NIC long idle
	send(f, Packet{Src: "n1", Dst: "n2", Size: 100_000})
	k.Run()
	want := sim.Millisecond + 50*sim.Microsecond
	if arrivals[0] != want {
		t.Fatalf("first arrival %v, want %v", arrivals[0], want)
	}
	if arrivals[1] != 100*sim.Millisecond+want {
		t.Fatalf("second arrival %v, want %v (no stale queueing)", arrivals[1], 100*sim.Millisecond+want)
	}
}

func TestProfiles(t *testing.T) {
	eth, ib := EthernetGigE(), InfinibandDDR()
	if ib.Latency >= eth.Latency {
		t.Fatal("InfiniBand latency should beat Ethernet")
	}
	if ib.Bandwidth <= eth.Bandwidth {
		t.Fatal("InfiniBand bandwidth should beat Ethernet")
	}
	if wan := InterClusterWAN(); wan.Latency <= eth.Latency {
		t.Fatal("inter-cluster latency should exceed intra-cluster")
	}
}

func TestPathAndClusterBandwidth(t *testing.T) {
	_, f := newTestFabric(t)
	p1 := f.Attach("n1", "a", nil)
	p2 := f.Attach("n2", "b", nil)
	prof := f.profileBetween(p1.cluster, p2.cluster)
	if bw := effectiveBandwidth(prof, p1, p2); bw != 50e6 {
		t.Fatalf("inter-cluster path bw %v", bw)
	}
	p2.BandwidthFactor = 0.5
	if bw := effectiveBandwidth(prof, p1, p2); bw != 25e6 {
		t.Fatalf("factored path bw %v", bw)
	}
	if got := f.ClusterBandwidth("a", "a"); got != 100e6 {
		t.Fatalf("intra bandwidth %v", got)
	}
	if got := f.ClusterBandwidth("a", "b"); got != 50e6 {
		t.Fatalf("inter bandwidth %v", got)
	}
	if got := f.ClusterBandwidth("nope", "nope"); got != 0 {
		t.Fatalf("unknown cluster bandwidth %v", got)
	}
}
