package tcp

import (
	"bytes"
	"testing"

	"dvc/internal/netsim"
	"dvc/internal/payload"
	"dvc/internal/sim"
)

// header is a segment's fields other than its data, which a test can
// keep after the segment has been recycled.
type header struct {
	src, dst uint16
	seq, ack uint64
	flags    Flags
	len      int
}

func headerOf(s *Segment) header {
	return header{s.SrcPort, s.DstPort, s.Seq, s.Ack, s.Flags, s.Data.Len()}
}

// freeSegments returns the stack's segment free list as a set, checking
// that every recycled record was zeroed (no payload kept alive).
func freeSegments(t *testing.T, s *Stack) map[*Segment]bool {
	t.Helper()
	set := make(map[*Segment]bool)
	for seg := s.freeSegs; seg != nil; seg = seg.next {
		if set[seg] {
			t.Fatalf("segment %p is on the free list twice", seg)
		}
		set[seg] = true
		if headerOf(seg) != (header{}) || seg.Data.NumChunks() != 0 {
			t.Fatalf("recycled segment not zeroed: %v", seg)
		}
	}
	return set
}

// TestSegmentOwnership checks the segment free list's ownership rule: a
// segment delivered to a running stack is recycled by it once handled,
// and a segment dropped on the wire or at a frozen stack never reaches a
// free list. It runs a transfer through a wire that loses some data
// segments outright and delays others past their successors, freezes
// the receiver mid-transfer, and requires the data to arrive intact
// while records are reused. Last it checks the RST a stack sends for a
// segment that matches no connection.
func TestSegmentOwnership(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSS = 1000
	cfg.SendWindow = 8000
	k := sim.NewKernel(7)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	sa := NewStack(k, f, "A", cfg)
	sb := NewStack(k, f, "B", cfg)

	wireLost := make(map[*Segment]bool)   // dropped by the wire
	frozenLost := make(map[*Segment]bool) // reached B while it was frozen
	var atA []header                      // what reached A, read before Deliver recycles it
	f.Attach("A", "c", func(pkt netsim.Packet) {
		atA = append(atA, headerOf(pkt.Payload.(*Segment)))
		sa.Deliver(pkt)
	})
	toB := func(pkt netsim.Packet) {
		if sb.Frozen() {
			frozenLost[pkt.Payload.(*Segment)] = true
		}
		sb.Deliver(pkt)
	}
	f.Attach("B", "c", toB)
	var cb *Conn
	sb.Listen(5000, func(c *Conn) { cb = c })
	ca := sa.Connect("B", 5000)
	k.RunFor(sim.Second)
	if ca.State() != StateEstablished || cb == nil {
		t.Fatalf("handshake failed: client %v", ca.State())
	}

	// Every fifth data segment is lost; every seventh is held back and
	// delivered after the segments sent behind it (reordering).
	var held []netsim.Packet
	dataSent, reordered := 0, 0
	seen := make(map[*Segment]bool)
	f.DropRule = func(pkt netsim.Packet) bool {
		seg := pkt.Payload.(*Segment)
		seen[seg] = true
		if seg.Data.Len() == 0 {
			return false
		}
		dataSent++
		switch {
		case dataSent%5 == 0:
			wireLost[seg] = true
			return true
		case dataSent%7 == 0:
			held = append(held, pkt)
			return true
		}
		return false
	}

	msg := make([]byte, 200_000)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	if err := ca.Write(msg); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for step := 0; step < 60_000 && len(got) < len(msg); step++ {
		k.RunFor(sim.Millisecond)
		for i := len(held) - 1; i >= 0; i-- {
			toB(held[i])
			reordered++
		}
		held = held[:0]
		switch step {
		case 20:
			sb.Freeze()
		case 600:
			sb.Thaw()
		}
		got = append(got, drain(cb)...)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("delivered %d bytes, want %d intact", len(got), len(msg))
	}
	total := sa.SegmentsSent + sb.SegmentsSent
	t.Logf("%d segments sent in %d records: %d lost on the wire, %d at the frozen stack, %d reordered",
		total, len(seen), len(wireLost), len(frozenLost), reordered)
	if len(wireLost) == 0 || len(frozenLost) == 0 || reordered == 0 {
		t.Fatal("the run lost or reordered nothing")
	}
	// Records are reused: far fewer distinct segments crossed the wire
	// than were sent.
	if uint64(len(seen))*4 > total {
		t.Fatalf("%d distinct segment records for %d segments sent: delivered segments are not recycled", len(seen), total)
	}
	for _, s := range []*Stack{sa, sb} {
		for seg := range freeSegments(t, s) {
			if wireLost[seg] || frozenLost[seg] {
				t.Fatalf("segment %p was lost on the wire or at a frozen stack but reached %s's free list", seg, s.Addr())
			}
		}
	}

	// A segment that matches no connection is answered with an RST that
	// mirrors it, and is itself recycled by the stack it reached.
	f.DropRule = nil
	k.RunFor(sim.Second)
	atA = atA[:0]
	sentB := sb.SegmentsSent
	stray := &Segment{SrcPort: 40000, DstPort: 6000, Flags: FlagACK, Seq: 11, Ack: 22, Data: payload.Wrap([]byte("stray"))}
	sb.Deliver(netsim.Packet{Src: "A", Dst: "B", Size: stray.WireSize(), Payload: stray})
	if !freeSegments(t, sb)[stray] {
		t.Fatal("the stray segment was not recycled after its RST was sent")
	}
	// The RST matches no connection at A either, and is not answered.
	k.RunFor(sim.Second)
	want := header{src: 6000, dst: 40000, flags: FlagRST, seq: 22, ack: 11}
	if sb.SegmentsSent != sentB+1 || len(atA) != 1 || atA[0] != want {
		t.Fatalf("stray segment answered with %d segments %v, want one %v", sb.SegmentsSent-sentB, atA, want)
	}
	if ca.State() != StateEstablished || cb.State() != StateEstablished {
		t.Fatalf("the stray RST reached a live connection: client %v, server %v", ca.State(), cb.State())
	}
}
