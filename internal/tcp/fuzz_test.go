package tcp

import (
	"encoding/binary"
	"testing"

	"dvc/internal/netsim"
	"dvc/internal/payload"
	"dvc/internal/sim"
)

// FuzzConnReceive feeds hostile segments to an established pair built
// like TestSegmentOwnership's, with data in flight both ways. Each 6-byte
// record of the input's first 240 bytes is one segment:
//
//	byte 0     flags, any bit pattern (bit 2 is unused: there is no FIN)
//	byte 1     bit 0: deliver to A (else B); bits 1-2: seq mode (0, 1:
//	           relative to the receiver's rcvNxt, 2: near 2^64, 3: raw
//	           16-bit); bit 3: run the kernel 1ms afterwards; bits 4-5:
//	           ports (0, 1: the connection's key, 2: an unbound source
//	           port, 3: an unbound source port to the listening port)
//	bytes 2-3  seq offset (int16)
//	byte 4     ack offset from the receiver's sndNxt (int8); also the
//	           unbound source port
//	byte 5     data length in units of 40 bytes (0..10,200, past the
//	           8,000-byte window)
//
// Nothing may panic, and after every segment each connection of both
// stacks keeps sndUna ≤ sndNxt and a stash whose every entry starts
// after rcvNxt and ends by rcvNxt+SendWindow, and the delivered segment
// sits on the receiver's free list exactly once. The committed corpus
// (testdata/fuzz/FuzzConnReceive) holds a gap then its fill (gap-fill),
// an RST to each side (rst-both), a SYN to the listener and to a bound
// key (syn-storm), the old FIN bit with data (fin-bit), a sequence
// number near 2^64 (huge-seq), data past the window (beyond-window) and
// acks past sndNxt (ack-beyond). Run:
//
//	go test -run '^$' -fuzz FuzzConnReceive -fuzztime 10s ./internal/tcp
func FuzzConnReceive(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := DefaultConfig()
		cfg.MSS = 1000
		cfg.SendWindow = 8000
		k := sim.NewKernel(7)
		fab := netsim.NewFabric(k)
		fab.AddCluster("c", netsim.EthernetGigE())
		sa := NewStack(k, fab, "A", cfg)
		sb := NewStack(k, fab, "B", cfg)
		fab.Attach("A", "c", sa.Deliver)
		fab.Attach("B", "c", sb.Deliver)
		var cb *Conn
		sb.Listen(5000, func(c *Conn) {
			if cb == nil {
				cb = c
			}
		})
		ca, _ := sa.Connect("B", 5000)
		k.RunFor(sim.Second)
		if ca.State() != StateEstablished || cb == nil {
			t.Fatalf("handshake failed: client %v", ca.State())
		}
		ca.Write(make([]byte, 20_000))
		cb.Write(make([]byte, 20_000))
		k.RunFor(100 * sim.Microsecond)

		check := func(when string) {
			t.Helper()
			for _, s := range []*Stack{sa, sb} {
				for _, c := range s.Conns() {
					if c.sndUna > c.sndNxt {
						t.Fatalf("%s: %s %v sndUna %d > sndNxt %d", when, s.Addr(), c.Key(), c.sndUna, c.sndNxt)
					}
					for seq, d := range c.ooo {
						if seq <= c.rcvNxt || seq+uint64(d.Len()) > c.rcvNxt+uint64(cfg.SendWindow) {
							t.Fatalf("%s: %s %v stashes [%d, %d) outside (rcvNxt %d, +%d]",
								when, s.Addr(), c.Key(), seq, seq+uint64(d.Len()), c.rcvNxt, cfg.SendWindow)
						}
					}
				}
			}
		}
		// At most 40 segments: longer inputs add nothing but stall the
		// fuzzer in minimization.
		for data = data[:min(len(data), 240)]; len(data) >= 6; data = data[6:] {
			flags, ctl := Flags(data[0]), data[1]
			off := int16(binary.LittleEndian.Uint16(data[2:4]))
			s, c, src := sb, cb, netsim.Addr("A")
			if ctl&1 != 0 {
				s, c, src = sa, ca, "B"
			}
			seg := &Segment{Flags: flags, Ack: c.sndNxt + uint64(int8(data[4])), Data: payload.Wrap(make([]byte, 40*int(data[5])))}
			switch ctl >> 1 & 3 {
			case 0, 1:
				seg.Seq = c.rcvNxt + uint64(off)
			case 2:
				seg.Seq = ^uint64(0) - uint64(uint16(off))
			case 3:
				seg.Seq = uint64(uint16(off))
			}
			switch ctl >> 4 & 3 {
			case 0, 1:
				seg.SrcPort, seg.DstPort = c.Key().RemotePort, c.Key().LocalPort
			case 2:
				seg.SrcPort, seg.DstPort = 40000+uint16(data[4]), c.Key().LocalPort
			case 3:
				seg.SrcPort, seg.DstPort = 40000+uint16(data[4]), 5000
			}
			s.Deliver(netsim.Packet{Src: src, Dst: s.Addr(), SrcID: fab.Endpoint(src), Size: seg.WireSize(), Payload: seg})
			if !freeSegments(t, s)[seg] {
				t.Fatalf("delivered segment %v was not recycled", seg)
			}
			check("after a hostile segment")
			if ctl&8 != 0 {
				k.RunFor(sim.Millisecond)
				check("after running")
			}
		}
		k.RunFor(time30())
		check("at the end")
	})
}
