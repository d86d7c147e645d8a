package tcp

import (
	"bytes"
	"reflect"
	"testing"

	"dvc/internal/imgcodec"
	"dvc/internal/netsim"
	"dvc/internal/payload"
	"dvc/internal/sim"
)

// retainedBytes reports how many bytes of chunk backing the ring keeps
// alive (including the consumed prefix of the head chunk).
func (r *chunkRing) retainedBytes() int {
	total := 0
	for k := 0; k < r.n; k++ {
		total += len(r.at(k))
	}
	return total
}

// stashBytes is the payload held in c's out-of-order stash.
func stashBytes(c *Conn) int {
	n := 0
	for _, data := range c.ooo {
		n += data.Len()
	}
	return n
}

// TestRingRetentionBounded is the regression test for the reslice-pinning
// bug the ring buffers fix: the old sendBuf/recvBuf were consumed with
// `buf = buf[n:]`, which keeps the entire backing array — including every
// already-ACKed or already-read byte — reachable for as long as the
// connection lives. After a large transfer fully drains, the rings must
// retain nothing: every consumed descriptor slot is nil so the chunk
// backing arrays are garbage.
func TestRingRetentionBounded(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)

	const msgBytes = 256 << 10
	const rounds = 8
	var total []byte
	for i := 0; i < rounds; i++ {
		msg := bytes.Repeat([]byte{byte('a' + i)}, msgBytes)
		if err := ca.Write(msg); err != nil {
			t.Fatal(err)
		}
		p.k.RunFor(5 * sim.Second)
		total = append(total, drain(cb)...)
	}
	if len(total) != rounds*msgBytes {
		t.Fatalf("delivered %d bytes, want %d", len(total), rounds*msgBytes)
	}
	if got := ca.SendBacklog(); got != 0 {
		t.Fatalf("sender backlog %d after full ACK", got)
	}
	if got := ca.sendQ.retainedBytes(); got != 0 {
		t.Fatalf("drained send ring retains %d bytes", got)
	}
	if got := cb.recvQ.retainedBytes(); got != 0 {
		t.Fatalf("drained recv ring retains %d bytes", got)
	}
	// The descriptor arrays themselves must have released every chunk
	// reference: a non-nil slot outside the live window pins its backing
	// array exactly like the old reslice did.
	for _, r := range []*chunkRing{&ca.sendQ, &cb.recvQ} {
		for i, c := range r.chunks {
			if c != nil {
				t.Fatalf("ring slot %d still references a %d-byte chunk after drain", i, len(c))
			}
		}
	}
}

// TestOOOStashBoundedUnderLoss streams data through a lossy wire and
// checks, at every millisecond of the run, that the receiver's
// out-of-order stash never exceeds the receive window (== SendWindow in
// this symmetric stack). An honest go-back-N peer cannot legitimately
// put more than a window of data past the reassembly point, so the
// stash staying bounded costs nothing — and the transfer must still
// complete intact through the losses.
func TestOOOStashBoundedUnderLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSS = 1000
	cfg.SendWindow = 4000
	p := newPair(t, cfg)
	ca, cb := p.connect(t)

	n := 0
	p.fabric.DropRule = func(pkt netsim.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if !ok || seg.Data.Len() == 0 {
			return false
		}
		n++
		return n%5 == 0 // drop every fifth data segment
	}

	msg := make([]byte, 100_000)
	for i := range msg {
		msg[i] = byte(i)
	}
	if err := ca.Write(msg); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for step := 0; step < 60_000; step++ {
		p.k.RunFor(sim.Millisecond)
		if stashBytes(cb) > cfg.SendWindow {
			t.Fatalf("ooo stash %d bytes exceeds window %d at step %d", stashBytes(cb), cfg.SendWindow, step)
		}
		got = append(got, drain(cb)...)
		if len(got) == len(msg) {
			break
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("lossy transfer delivered %d bytes, want %d intact", len(got), len(msg))
	}
	if ca.Retransmits == 0 {
		t.Fatal("drop rule never forced a retransmission")
	}
	if p.sa.Stats.OOODroppedBytes != 0 || p.sb.Stats.OOODroppedBytes != 0 {
		t.Fatalf("honest peer hit the ooo bound: %d/%d bytes dropped",
			p.sa.Stats.OOODroppedBytes, p.sb.Stats.OOODroppedBytes)
	}
}

// TestOOOOutOfWindowSegmentDropped injects a segment far beyond the
// receive window — something no honest go-back-N peer can send — and
// verifies it is dropped and accounted in Stats.OOODroppedBytes instead
// of growing the stash without limit.
func TestOOOOutOfWindowSegmentDropped(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSS = 1000
	cfg.SendWindow = 3000
	p := newPair(t, cfg)
	_, cb := p.connect(t)
	key := cb.Key()

	inject := func(seq uint64, data []byte) {
		p.sb.Deliver(netsim.Packet{Src: key.RemoteAddr, Dst: "B", SrcID: p.fabric.Endpoint(key.RemoteAddr), Payload: &Segment{
			SrcPort: key.RemotePort,
			DstPort: key.LocalPort,
			Flags:   FlagACK,
			Seq:     seq,
			Ack:     1,
			Data:    payload.Wrap(data),
		}})
	}

	// In-window out-of-order data is stashed.
	inject(cb.rcvNxt+1000, []byte("in-window"))
	if stashBytes(cb) == 0 {
		t.Fatal("in-window out-of-order segment was not stashed")
	}
	stashed := stashBytes(cb)

	// Out-of-window data is dropped and accounted.
	hostile := bytes.Repeat([]byte{0xee}, 500)
	inject(cb.rcvNxt+uint64(cfg.SendWindow)+10_000, hostile)
	if stashBytes(cb) != stashed {
		t.Fatalf("out-of-window segment entered the stash (stash %d -> %d bytes)", stashed, stashBytes(cb))
	}
	if got := p.sb.Stats.OOODroppedBytes; got != uint64(len(hostile)) {
		t.Fatalf("OOODroppedBytes = %d, want %d", got, len(hostile))
	}

	// The boundary itself is inclusive: a segment ending exactly at
	// rcvNxt+window is legitimate for an honest peer and must be kept.
	edge := bytes.Repeat([]byte{0x33}, 100)
	inject(cb.rcvNxt+uint64(cfg.SendWindow)-uint64(len(edge)), edge)
	if stashBytes(cb) != stashed+len(edge) {
		t.Fatalf("segment ending exactly at the window edge was dropped (stash %d bytes, want %d)",
			stashBytes(cb), stashed+len(edge))
	}
	if got := p.sb.Stats.OOODroppedBytes; got != uint64(len(hostile)) {
		t.Fatalf("edge segment was accounted as dropped (OOODroppedBytes %d)", got)
	}
}

// TestStashDropsPassedSegments: go-back-N re-sends with new segment
// boundaries, so a stashed segment can start below the reassembly point
// once the gap before it fills. The drain never reads such an entry, so
// it must leave the stash, and the image, at once.
func TestStashDropsPassedSegments(t *testing.T) {
	p := newPair(t, DefaultConfig())
	_, cb := p.connect(t)
	key := cb.Key()
	inject := func(seq uint64, n int) {
		p.sb.Deliver(netsim.Packet{Src: key.RemoteAddr, Dst: "B", SrcID: p.fabric.Endpoint(key.RemoteAddr), Payload: &Segment{
			SrcPort: key.RemotePort, DstPort: key.LocalPort, Flags: FlagACK, Seq: seq, Ack: 1,
			Data: payload.Wrap(bytes.Repeat([]byte{byte(seq)}, n)),
		}})
	}
	base := cb.rcvNxt
	inject(base+500, 1000)
	if len(cb.ooo) != 1 {
		t.Fatalf("segment past a gap was not stashed: %d entries", len(cb.ooo))
	}
	inject(base, 1000) // fills the gap, ends inside the stashed segment
	if cb.rcvNxt != base+1000 || cb.Readable() != 1000 {
		t.Fatalf("rcvNxt %d readable %d, want %d and 1000", cb.rcvNxt, cb.Readable(), base+1000)
	}
	if len(cb.ooo) != 0 {
		t.Fatalf("stash keeps %d entries the reassembly point has passed", len(cb.ooo))
	}
	p.sb.Freeze()
	if ooo := p.sb.Snapshot().Conns[0].OOO; len(ooo) != 0 {
		t.Fatalf("image carries %d passed stash entries", len(ooo))
	}
}

// TestSnapshotRoundTripWithChunkedQueues freezes a connection
// mid-transfer — send queue part-ACKed, receive queue part-read, and the
// out-of-order map populated by a lost segment — and requires that
// snapshot -> restore -> snapshot reproduces the first snapshot exactly,
// both structurally and in encoded length. It then thaws the restored
// stacks and requires the transfer to complete intact, proving the
// restored rope-backed queues carry real state, not just matching
// images.
func TestSnapshotRoundTripWithChunkedQueues(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSS = 1000
	cfg.SendWindow = 3000
	p := newPair(t, cfg)
	ca, cb := p.connect(t)

	// Lose the first data segment so the two behind it land in the
	// out-of-order stash.
	dropped := false
	p.fabric.DropRule = func(pkt netsim.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if ok && seg.Data.Len() > 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}

	msg := make([]byte, 20_000)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	if err := ca.Write(msg); err != nil {
		t.Fatal(err)
	}
	p.k.RunFor(2 * sim.Millisecond) // in flight, before the retransmit timer
	if !dropped {
		t.Fatal("drop rule never matched")
	}
	if stashBytes(cb) == 0 {
		t.Fatal("loss did not populate the out-of-order stash")
	}

	p.sa.Freeze()
	p.sb.Freeze()
	p.pa.SetUp(false)
	p.pb.SetUp(false)
	snapA, snapB := p.sa.Snapshot(), p.sb.Snapshot()
	if len(snapB.Conns) != 1 || len(snapB.Conns[0].OOO) == 0 {
		t.Fatal("snapshot did not capture the out-of-order stash")
	}

	// Round trip: restore (not attached to the fabric, so no traffic)
	// and re-snapshot. Everything the image carries must survive.
	encoded := func(s *StackSnapshot) []byte {
		b, err := imgcodec.Append(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, snap := range []*StackSnapshot{snapA, snapB} {
		again := RestoreStack(p.k, p.fabric, snap).Snapshot()
		if !reflect.DeepEqual(snap, again) {
			t.Fatalf("snapshot of restored stack %s differs from original snapshot", snap.Addr)
		}
		a, b := encoded(snap), encoded(again)
		if len(a) != len(b) {
			t.Fatalf("encoded snapshot length changed across restore: %d -> %d", len(a), len(b))
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("encoded snapshot of restored stack %s differs from the original's", snap.Addr)
		}
	}

	// Now restore for real: detach the originals, attach the restored
	// stacks, thaw, and finish the transfer.
	p.pa.Detach()
	p.pb.Detach()
	sa2 := RestoreStack(p.k, p.fabric, snapA)
	sb2 := RestoreStack(p.k, p.fabric, snapB)
	p.fabric.Attach("A", "c", sa2.Deliver)
	p.fabric.Attach("B", "c", sb2.Deliver)
	sa2.Thaw()
	sb2.Thaw()
	p.k.RunFor(60 * sim.Second)

	ca2, cb2 := sa2.Conns()[0], sb2.Conns()[0]
	if got := drain(cb2); !bytes.Equal(got, msg) {
		t.Fatalf("post-restore transfer delivered %d bytes, want %d intact", len(got), len(msg))
	}
	if ca2.SendBacklog() != 0 {
		t.Fatalf("restored sender still has %d bytes of backlog", ca2.SendBacklog())
	}
}
