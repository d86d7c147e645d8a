package experiments

import (
	"dvc/internal/metrics"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

func init() {
	register("E3", "Consistent network cuts: Scenarios 1-2 + unreliable-protocol control (Fig. 2, §3)", runE3)
}

// runE3 reproduces Figure 2's consistency argument mechanically:
//
//	Scenario 1: a data segment is on the wire at snapshot time and lost;
//	  the (restored) sender retransmits, so nothing is lost.
//	Scenario 2: the data arrived but the ACK is lost at snapshot time;
//	  the sender retransmits, the receiver discards the duplicate and
//	  re-ACKs, so nothing is duplicated.
//	Control: the same cut under an unreliable (UDP-like) protocol loses
//	  the in-flight message permanently — the inconsistent cut.
func runE3(opts Options) *Result {
	res := &Result{}
	tbl := metrics.NewTable("E3: snapshot cuts of the network",
		"scenario", "sent", "delivered", "dup-to-app", "lost", "consistent")

	arms := []cutArm{{}, {cutAck: true}, {udp: true}}
	outs := sweep(opts, arms, 1, func(a cutArm, _ int, _ *obs.Tracer) cutOutcome {
		return a.run(opts.Seed)
	})
	s1, s2, ctl := outs[0][0], outs[1][0], outs[2][0]
	tbl.Row("S1: data in flight (TCP)", s1.sent, s1.delivered, s1.dups, s1.lost, s1.consistent())
	tbl.Row("S2: ACK in flight (TCP)", s2.sent, s2.delivered, s2.dups, s2.lost, s2.consistent())
	tbl.Row("control: UDP-like", ctl.sent, ctl.delivered, ctl.dups, ctl.lost, ctl.consistent())
	res.table(tbl, opts.out())

	res.check("scenario 1 consistent", s1.consistent(),
		"delivered %d/%d, dups %d", s1.delivered, s1.sent, s1.dups)
	res.check("scenario 2 consistent with duplicate suppressed",
		s2.consistent() && s2.dupSegments > 0,
		"delivered %d/%d, wire dups %d, app dups %d", s2.delivered, s2.sent, s2.dupSegments, s2.dups)
	res.check("unreliable protocol loses data", ctl.lost > 0,
		"lost %d of %d", ctl.lost, ctl.sent)
	return res
}

type cutOutcome struct {
	sent, delivered, dups, lost int
	dupSegments                 int
}

func (c cutOutcome) consistent() bool { return c.lost == 0 && c.dups == 0 }

// cutArm is one snapshot cut of the network: TCP with the data segment
// (Scenario 1) or the returning ACK (Scenario 2, cutAck) in flight, or
// the unreliable control protocol (udp).
type cutArm struct{ cutAck, udp bool }

func (a cutArm) run(seed int64) cutOutcome {
	if a.udp {
		return runUnreliableCut(seed)
	}
	return runCutScenario(seed, a.cutAck)
}

// runCutScenario plays one message across a coordinated snapshot. With
// cutAck=false the data segment itself is lost at the snapshot (Scenario
// 1); with cutAck=true the data is delivered but the returning ACK is
// lost (Scenario 2).
func runCutScenario(seed int64, cutAck bool) cutOutcome {
	k := sim.NewKernel(seed)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	sa := tcp.NewStack(k, f, "A", tcp.DefaultConfig())
	sb := tcp.NewStack(k, f, "B", tcp.DefaultConfig())
	pa := f.Attach("A", "c", sa.Deliver)
	pb := f.Attach("B", "c", sb.Deliver)
	sb.Listen(5000, func(*tcp.Conn) {})
	ca, _ := sa.Connect("B", 5000) // a fresh stack has every port free
	k.RunFor(sim.Second)

	// Cut the chosen direction while the message is in flight.
	if cutAck {
		f.DropRule = func(pkt netsim.Packet) bool {
			seg, ok := pkt.Payload.(*tcp.Segment)
			return ok && pkt.Src == netsim.Addr("B") && seg.Data.Len() == 0
		}
	} else {
		f.DropRule = func(pkt netsim.Packet) bool {
			seg, ok := pkt.Payload.(*tcp.Segment)
			return ok && seg.Data.Len() > 0
		}
	}
	msg := []byte("the message")
	ca.Write(msg)
	k.RunFor(5 * sim.Millisecond)

	// Coordinated snapshot: freeze both, capture, destroy, restore.
	sa.Freeze()
	sb.Freeze()
	pa.SetUp(false)
	pb.SetUp(false)
	snapA, snapB := sa.Snapshot(), sb.Snapshot()
	pa.Detach()
	pb.Detach()
	f.DropRule = nil
	k.RunFor(10 * sim.Second)

	sa2 := tcp.RestoreStack(k, f, snapA)
	sb2 := tcp.RestoreStack(k, f, snapB)
	f.Attach("A", "c", sa2.Deliver)
	f.Attach("B", "c", sb2.Deliver)
	sa2.Thaw()
	sb2.Thaw()
	k.RunFor(30 * sim.Second)

	out := cutOutcome{sent: 1}
	ca2 := sa2.Conns()[0]
	cb2 := sb2.Conns()[0]
	got := cb2.Read(cb2.Readable())
	if string(got) == string(msg) {
		out.delivered = 1
	} else if len(got) > len(msg) {
		out.delivered = 1
		out.dups = 1
	} else if len(got) == 0 {
		out.lost = 1
	}
	out.dupSegments = int(cb2.DupSegments)
	if ca2.SendBacklog() != 0 {
		out.lost = 1 // sender never got an ACK: delivery not confirmed
	}
	return out
}

// rawMsg is the unreliable control protocol: fire-and-forget datagrams
// with sequence numbers, no retransmission — an OS-bypass fabric like raw
// InfiniBand verbs would behave this way under a VM snapshot.
type rawEndpoint struct {
	got  map[int]bool
	port *netsim.Port
}

func runUnreliableCut(seed int64) cutOutcome {
	k := sim.NewKernel(seed)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	recv := &rawEndpoint{got: make(map[int]bool)}
	f.Attach("A", "c", nil)
	recv.port = f.Attach("B", "c", func(pkt netsim.Packet) {
		recv.got[pkt.Payload.(int)] = true
	})
	pkt := netsim.Packet{Src: "A", Dst: "B", SrcID: f.Endpoint("A"), DstID: f.Endpoint("B"), Size: 1024}

	const total = 10
	out := cutOutcome{sent: total}
	// Send a stream; freeze the receiver mid-stream (snapshot), losing
	// whatever is on the wire; then resume and send the rest.
	for i := 0; i < 5; i++ {
		pkt.Payload = i
		f.Send(pkt)
	}
	k.RunFor(20 * sim.Microsecond) // messages 0.. are still in flight
	recv.port.SetUp(false)         // snapshot instant
	k.RunFor(sim.Second)
	recv.port.SetUp(true) // restored
	for i := 5; i < total; i++ {
		pkt.Payload = i
		f.Send(pkt)
	}
	k.RunFor(sim.Second)

	for i := 0; i < total; i++ {
		if recv.got[i] {
			out.delivered++
		} else {
			out.lost++
		}
	}
	return out
}
