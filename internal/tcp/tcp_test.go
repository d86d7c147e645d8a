package tcp

import (
	"bytes"
	"reflect"
	"testing"

	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/sim"
)

// pair wires two stacks onto a fabric with ~55us latency.
type pair struct {
	k        *sim.Kernel
	fabric   *netsim.Fabric
	pa, pb   *netsim.Port
	sa, sb   *Stack
	accepted []*Conn
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	k := sim.NewKernel(99)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	p := &pair{k: k, fabric: f}
	p.sa = NewStack(k, f, "A", cfg)
	p.sb = NewStack(k, f, "B", cfg)
	p.pa = f.Attach("A", "c", p.sa.Deliver)
	p.pb = f.Attach("B", "c", p.sb.Deliver)
	p.sb.Listen(5000, func(c *Conn) { p.accepted = append(p.accepted, c) })
	return p
}

// connect establishes a conn from A to B:5000 and returns both ends.
func (p *pair) connect(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ca, _ := p.sa.Connect("B", 5000)
	p.k.RunFor(sim.Second)
	if ca.State() != StateEstablished {
		t.Fatalf("client state = %v, want Established", ca.State())
	}
	if len(p.accepted) == 0 {
		t.Fatal("no accepted connection")
	}
	cb := p.accepted[len(p.accepted)-1]
	if cb.State() != StateEstablished {
		t.Fatalf("server state = %v, want Established", cb.State())
	}
	return ca, cb
}

func drain(c *Conn) []byte { return c.Read(c.Readable()) }

// resetLog is a trace sink that keeps the why of every tcp.reset record.
type resetLog []string

func (l *resetLog) WriteRecord(r *obs.Record) error {
	for _, kv := range r.Attrs {
		if r.Type == obs.EvTCPReset && kv.K == "why" {
			*l = append(*l, kv.V)
		}
	}
	return nil
}

func (l *resetLog) Flush() error { return nil }

// traceResets records the cause of every reset on s.
func traceResets(s *Stack) *resetLog {
	l := new(resetLog)
	s.SetTracer(obs.NewTracerWithSink(l), "node", "dom")
	return l
}

// wantResets checks the causes of the resets l recorded, in order.
func wantResets(t *testing.T, l *resetLog, why ...string) {
	t.Helper()
	if !reflect.DeepEqual([]string(*l), why) {
		t.Fatalf("tcp.reset whys %q, want %q", *l, why)
	}
}

func TestHandshake(t *testing.T) {
	p := newPair(t, DefaultConfig())
	woken := 0
	ca, _ := p.sa.Connect("B", 5000)
	ca.Notify = func() { woken++ }
	p.k.RunFor(sim.Second)
	if woken == 0 || ca.State() != StateEstablished {
		t.Fatalf("Notify fired %d times, state %v; want a wake-up into Established", woken, ca.State())
	}
	if len(p.accepted) != 1 {
		t.Fatalf("accepted %d conns, want 1", len(p.accepted))
	}
}

func TestDataTransfer(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)
	msg := []byte("the quick brown fox jumps over the lazy dog")
	if err := ca.Write(msg); err != nil {
		t.Fatal(err)
	}
	p.k.RunFor(sim.Second)
	if got := drain(cb); !bytes.Equal(got, msg) {
		t.Fatalf("received %q, want %q", got, msg)
	}
	// And the reverse direction.
	if err := cb.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	p.k.RunFor(sim.Second)
	if got := drain(ca); string(got) != "pong" {
		t.Fatalf("reverse direction got %q", got)
	}
}

func TestLargeTransferSegmentsAndReassembles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSS = 1000
	cfg.SendWindow = 4000
	p := newPair(t, cfg)
	ca, cb := p.connect(t)
	msg := make([]byte, 50_000)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	ca.Write(msg)
	p.k.RunFor(10 * sim.Second)
	got := drain(cb)
	if !bytes.Equal(got, msg) {
		t.Fatalf("large transfer corrupted: got %d bytes", len(got))
	}
	if ca.SendBacklog() != 0 {
		t.Fatalf("send backlog %d after full ack", ca.SendBacklog())
	}
}

func TestOnReadableFires(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)
	fires := 0
	cb.Notify = func() { fires++ }
	ca.Write([]byte("x"))
	p.k.RunFor(sim.Second)
	if fires == 0 || cb.Readable() != 1 {
		t.Fatalf("Notify fired %d times with %d bytes readable, want a wake-up and 1 byte", fires, cb.Readable())
	}
}

func TestLostDataSegmentIsRetransmitted(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)
	// Drop the next data segment once.
	dropped := false
	p.fabric.DropRule = func(pkt netsim.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if ok && seg.Data.Len() > 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	ca.Write([]byte("hello"))
	p.k.RunFor(5 * sim.Second)
	if !dropped {
		t.Fatal("drop rule never matched")
	}
	if got := drain(cb); string(got) != "hello" {
		t.Fatalf("got %q after loss, want hello", got)
	}
	if ca.Retransmits == 0 {
		t.Fatal("no retransmission counted")
	}
}

func TestLostAckCausesDuplicateWhichIsReAcked(t *testing.T) {
	// Paper Scenario 2: the ACK is lost; the sender retransmits; the
	// receiver discards the duplicate and re-ACKs.
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)
	dropped := false
	p.fabric.DropRule = func(pkt netsim.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if ok && pkt.Src == netsim.Addr("B") && seg.Flags.Has(FlagACK) && seg.Data.Len() == 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	ca.Write([]byte("data"))
	p.k.RunFor(5 * sim.Second)
	if got := drain(cb); string(got) != "data" {
		t.Fatalf("receiver got %q", got)
	}
	if cb.DupSegments == 0 {
		t.Fatal("receiver never saw the duplicate segment")
	}
	if ca.SendBacklog() != 0 {
		t.Fatal("sender still has unacked data: re-ACK did not arrive")
	}
	if ca.State() != StateEstablished || cb.State() != StateEstablished {
		t.Fatal("connection damaged by a single lost ACK")
	}
}

func TestRetriesExhaustedResetsConnection(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg)
	ca, cb := p.connect(t)
	resets := traceResets(p.sa)
	woken := false
	ca.Notify = func() { woken = true }
	// Peer vanishes: lower its port so everything to B is lost.
	p.pb.SetUp(false)
	ca.Write([]byte("into the void"))
	p.k.RunFor(30 * sim.Second)
	if ca.State() != StateReset || !woken {
		t.Fatalf("sender state = %v, woken %v; want a wake-up into Reset", ca.State(), woken)
	}
	wantResets(t, resets, "retry-budget")
	if int(ca.Retransmits) != cfg.MaxRetries {
		t.Fatalf("retransmits = %d, want %d", ca.Retransmits, cfg.MaxRetries)
	}
	_ = cb
}

func TestResetHappensAfterRetryBudget(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg)
	ca, _ := p.connect(t)
	budget := cfg.RetryBudget(ca.rto) // from the pre-failure RTO
	p.pb.SetUp(false)
	start := p.k.Now()
	ca.Write([]byte("x"))
	for ca.State() == StateEstablished && p.k.Now() < start+60*sim.Second {
		p.k.RunFor(100 * sim.Millisecond)
	}
	elapsed := p.k.Now() - start
	// The reset must land within [budget/2, budget*2] of the nominal
	// budget (RTT estimation shifts the initial RTO).
	if elapsed < budget/2 || elapsed > budget*2 {
		t.Fatalf("reset after %v, nominal budget %v", elapsed, budget)
	}
}

func TestRTOBacksOffExponentially(t *testing.T) {
	cfg := DefaultConfig()
	p := newPair(t, cfg)
	ca, _ := p.connect(t)
	rto0 := ca.rto
	p.pb.SetUp(false)
	ca.Write([]byte("x"))
	p.k.RunFor(rto0 + 50*sim.Millisecond)
	if ca.rto != rto0*2 {
		t.Fatalf("after 1 timeout RTO = %v, want %v", ca.rto, rto0*2)
	}
	p.k.RunFor(rto0 * 2)
	if ca.rto != rto0*4 {
		t.Fatalf("after 2 timeouts RTO = %v, want %v", ca.rto, rto0*4)
	}
}

func TestAckResetsRetryCount(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)
	// Lose two data transmissions, then let traffic flow: connection must
	// survive and deliver.
	losses := 0
	p.fabric.DropRule = func(pkt netsim.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if ok && seg.Data.Len() > 0 && losses < 2 {
			losses++
			return true
		}
		return false
	}
	ca.Write([]byte("persistent"))
	p.k.RunFor(10 * sim.Second)
	if got := drain(cb); string(got) != "persistent" {
		t.Fatalf("got %q", got)
	}
	// More traffic after recovery must start from a clean retry count.
	ca.Write([]byte("more"))
	p.k.RunFor(10 * sim.Second)
	if got := drain(cb); string(got) != "more" {
		t.Fatalf("follow-up got %q", got)
	}
	if ca.State() != StateEstablished {
		t.Fatalf("state %v after recovery", ca.State())
	}
}

// rst delivers an RST to c's stack as if from c's peer, with the peer's
// current sequence numbers.
func (p *pair) rst(c *Conn) {
	k, s := c.Key(), c.stack
	s.Deliver(netsim.Packet{Src: k.RemoteAddr, Dst: s.Addr(), SrcID: p.fabric.Endpoint(k.RemoteAddr), Size: HeaderSize, Payload: &Segment{
		SrcPort: k.RemotePort, DstPort: k.LocalPort, Flags: FlagRST, Seq: c.rcvNxt, Ack: c.sndNxt,
	}})
}

func TestPeerRSTResets(t *testing.T) {
	p := newPair(t, DefaultConfig())
	_, cb := p.connect(t)
	resets := traceResets(p.sb)
	woken := false
	cb.Notify = func() { woken = true }
	p.rst(cb)
	if cb.State() != StateReset || !woken {
		t.Fatalf("peer state = %v, woken %v; want a wake-up into Reset", cb.State(), woken)
	}
	wantResets(t, resets, "peer-rst")
}

func TestConnectToNonListeningPortResets(t *testing.T) {
	p := newPair(t, DefaultConfig())
	resets := traceResets(p.sa)
	ca, _ := p.sa.Connect("B", 9999)
	woken := false
	ca.Notify = func() { woken = true }
	p.k.RunFor(sim.Second)
	if ca.State() != StateReset || !woken {
		t.Fatalf("state=%v woken=%v, want a wake-up into Reset", ca.State(), woken)
	}
	wantResets(t, resets, "peer-rst")
}

func TestLostSYNIsRetried(t *testing.T) {
	p := newPair(t, DefaultConfig())
	dropped := false
	p.fabric.DropRule = func(pkt netsim.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if ok && seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) && !dropped {
			dropped = true
			return true
		}
		return false
	}
	ca, _ := p.sa.Connect("B", 5000)
	p.k.RunFor(5 * sim.Second)
	if ca.State() != StateEstablished {
		t.Fatalf("state = %v after SYN loss, want Established", ca.State())
	}
}

func TestLostSYNACKIsRecoveredByDupSYN(t *testing.T) {
	p := newPair(t, DefaultConfig())
	dropped := false
	p.fabric.DropRule = func(pkt netsim.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		if ok && seg.Flags.Has(FlagSYN) && seg.Flags.Has(FlagACK) && !dropped {
			dropped = true
			return true
		}
		return false
	}
	ca, _ := p.sa.Connect("B", 5000)
	p.k.RunFor(5 * sim.Second)
	if ca.State() != StateEstablished {
		t.Fatalf("state = %v after SYN|ACK loss", ca.State())
	}
	if len(p.accepted) != 1 {
		t.Fatalf("accepted %d, want 1", len(p.accepted))
	}
}

func TestSendWindowLimitsInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSS = 1000
	cfg.SendWindow = 2000
	p := newPair(t, cfg)
	ca, cb := p.connect(t)
	msg := make([]byte, 10_000)
	ca.Write(msg)
	// Immediately after Write, at most SendWindow bytes may be in flight.
	if inFlight := int(ca.sndNxt - ca.sndUna); inFlight > cfg.SendWindow {
		t.Fatalf("in flight %d > window %d", inFlight, cfg.SendWindow)
	}
	p.k.RunFor(10 * sim.Second)
	if got := drain(cb); len(got) != len(msg) {
		t.Fatalf("windowed transfer delivered %d of %d", len(got), len(msg))
	}
}

func TestRTTEstimationLowersRTO(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)
	for i := 0; i < 20; i++ {
		ca.Write([]byte("ping"))
		p.k.RunFor(50 * sim.Millisecond)
		drain(cb)
	}
	// LAN RTT is ~110us; RTO should sit at the MinRTO clamp.
	if ca.rto != DefaultConfig().MinRTO {
		t.Fatalf("RTO = %v after many samples, want clamp at %v", ca.rto, DefaultConfig().MinRTO)
	}
	if !ca.hasRTT {
		t.Fatal("no RTT samples recorded")
	}
}

func TestFreezeStopsTimersAndTraffic(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)
	_ = cb
	// Freeze B, then have A write: A should burn retries while B is
	// frozen, because B is not ACKing.
	p.sb.Freeze()
	p.pb.SetUp(false)
	ca.Write([]byte("x"))
	p.k.RunFor(500 * sim.Millisecond)
	if ca.Retransmits == 0 {
		t.Fatal("running sender should be retransmitting to a frozen peer")
	}
	// B's own timers must not have fired while frozen.
	if p.sb.SegmentsSent != p.sb.SegmentsSent {
		t.Fatal("unreachable")
	}
}

func TestFreezeThawPreservesTimerRemainder(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ca, _ := p.connect(t)
	p.pb.SetUp(false) // peer gone: retransmit timer will be armed
	ca.Write([]byte("x"))
	p.k.RunFor(50 * sim.Millisecond)
	retransBefore := ca.Retransmits
	p.sa.Freeze()
	p.pa.SetUp(false)
	// A long pause: if timers kept running, retries would exhaust.
	p.k.RunFor(5 * sim.Minute)
	if ca.Retransmits != retransBefore {
		t.Fatal("frozen connection retransmitted")
	}
	if ca.State() != StateEstablished {
		t.Fatalf("frozen connection changed state: %v", ca.State())
	}
	p.pa.SetUp(true)
	p.pb.SetUp(true)
	p.sa.Thaw()
	p.k.RunFor(30 * sim.Second)
	// After thaw the retransmit fires and the (revived) peer ACKs.
	if ca.SendBacklog() != 0 {
		t.Fatalf("data not delivered after thaw; backlog %d, state %v", ca.SendBacklog(), ca.State())
	}
}

func TestScenario1LostInFlightMessage(t *testing.T) {
	// Paper Scenario 1: a message is on the wire when both VMs are
	// checkpointed; the message is lost; after restart the sender
	// retransmits it. Here "checkpoint" is freeze+snapshot+thaw on both
	// ends with the in-flight packet force-dropped.
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)
	// Cut ALL traffic (simulating the snapshot instant), write, then
	// freeze both sides with the data unACKed.
	p.fabric.DropRule = func(netsim.Packet) bool { return true }
	ca.Write([]byte("in flight"))
	p.k.RunFor(10 * sim.Millisecond)
	p.sa.Freeze()
	p.sb.Freeze()
	p.pa.SetUp(false)
	p.pb.SetUp(false)
	p.fabric.DropRule = nil

	// Simulate the restore gap.
	p.k.RunFor(time30())

	p.pa.SetUp(true)
	p.pb.SetUp(true)
	p.sa.Thaw()
	p.sb.Thaw()
	p.k.RunFor(30 * sim.Second)
	if got := drain(cb); string(got) != "in flight" {
		t.Fatalf("receiver got %q, want retransmitted message", got)
	}
	if ca.State() != StateEstablished || cb.State() != StateEstablished {
		t.Fatalf("states %v/%v after restore", ca.State(), cb.State())
	}
}

func time30() sim.Time { return 30 * sim.Second }

func TestScenario2LostAckAtSnapshot(t *testing.T) {
	// Paper Scenario 2: data was delivered and ACKed, but the ACK is lost
	// at the snapshot. After restore the sender retransmits, the receiver
	// re-ACKs the duplicate, and no data is duplicated to the app.
	p := newPair(t, DefaultConfig())
	ca, cb := p.connect(t)
	// Let the data through but drop ACKs from B.
	p.fabric.DropRule = func(pkt netsim.Packet) bool {
		seg, ok := pkt.Payload.(*Segment)
		return ok && pkt.Src == netsim.Addr("B") && seg.Data.Len() == 0 && seg.Flags.Has(FlagACK) && !seg.Flags.Has(FlagSYN)
	}
	ca.Write([]byte("exactly once"))
	p.k.RunFor(10 * sim.Millisecond)
	if cb.Readable() == 0 {
		t.Fatal("setup: data should have been delivered to B")
	}
	p.sa.Freeze()
	p.sb.Freeze()
	p.pa.SetUp(false)
	p.pb.SetUp(false)
	p.fabric.DropRule = nil
	p.k.RunFor(time30())
	p.pa.SetUp(true)
	p.pb.SetUp(true)
	p.sa.Thaw()
	p.sb.Thaw()
	p.k.RunFor(30 * sim.Second)
	if got := drain(cb); string(got) != "exactly once" {
		t.Fatalf("app data %q, want exactly-once delivery", got)
	}
	if cb.DupSegments == 0 {
		t.Fatal("expected a duplicate segment after restore")
	}
	if ca.SendBacklog() != 0 {
		t.Fatal("sender never got the re-ACK")
	}
}

func TestSnapshotRestoreMidTransfer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSS = 1000
	cfg.SendWindow = 3000
	p := newPair(t, cfg)
	ca, cb := p.connect(t)
	msg := make([]byte, 20_000)
	for i := range msg {
		msg[i] = byte(i)
	}
	ca.Write(msg)
	p.k.RunFor(2 * sim.Millisecond) // partway through the transfer
	received := drain(cb)

	// Checkpoint both stacks.
	p.sa.Freeze()
	p.sb.Freeze()
	p.pa.SetUp(false)
	p.pb.SetUp(false)
	snapA, snapB := p.sa.Snapshot(), p.sb.Snapshot()

	// Destroy the originals (node died); restore onto the same fabric.
	p.pa.Detach()
	p.pb.Detach()
	p.k.RunFor(time30())
	sa2 := RestoreStack(p.k, p.fabric, snapA)
	sb2 := RestoreStack(p.k, p.fabric, snapB)
	p.fabric.Attach("A", "c", sa2.Deliver)
	p.fabric.Attach("B", "c", sb2.Deliver)
	sa2.Thaw()
	sb2.Thaw()
	p.k.RunFor(60 * sim.Second)

	ca2 := sa2.Conns()[0]
	cb2 := sb2.Conns()[0]
	received = append(received, drain(cb2)...)
	if !bytes.Equal(received, msg) {
		t.Fatalf("after restore: received %d bytes, want %d intact", len(received), len(msg))
	}
	if ca2.SendBacklog() != 0 {
		t.Fatalf("restored sender backlog %d", ca2.SendBacklog())
	}
	if ca2.State() != StateEstablished || cb2.State() != StateEstablished {
		t.Fatalf("restored states %v/%v", ca2.State(), cb2.State())
	}
}

func TestSnapshotRequiresFreeze(t *testing.T) {
	p := newPair(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot of running stack did not panic")
		}
	}()
	p.sa.Snapshot()
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	p := newPair(t, DefaultConfig())
	ca, _ := p.connect(t)
	p.pb.SetUp(false)
	ca.Write([]byte("abc"))
	p.sa.Freeze()
	snap := p.sa.Snapshot()
	snap.Conns[0].SendBuf[0] = 'X'
	if ca.sendQ.view(0, 1).Chunk(0)[0] == 'X' {
		t.Fatal("snapshot aliases live buffers")
	}
}

func TestDupListenPanics(t *testing.T) {
	p := newPair(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate listen did not panic")
		}
	}()
	p.sb.Listen(5000, nil)
}

func TestEphemeralPortsUnique(t *testing.T) {
	p := newPair(t, DefaultConfig())
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		c, _ := p.sa.Connect("B", 5000)
		if seen[c.Key().LocalPort] {
			t.Fatalf("duplicate ephemeral port %d", c.Key().LocalPort)
		}
		seen[c.Key().LocalPort] = true
	}
}

func TestRetryBudgetFormula(t *testing.T) {
	cfg := DefaultConfig()
	// 200ms * (1+2+4+8+16) = 6.2s
	want := 6200 * sim.Millisecond
	if got := cfg.RetryBudget(cfg.InitialRTO); got != want {
		t.Fatalf("RetryBudget = %v, want %v", got, want)
	}
}

func TestFlagsString(t *testing.T) {
	if (FlagSYN | FlagACK).String() != "SA" {
		t.Fatalf("flags string %q", (FlagSYN | FlagACK).String())
	}
	if Flags(0).String() != "-" {
		t.Fatal("zero flags should render as -")
	}
}

func TestConnStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateSynSent: "SynSent", StateSynRcvd: "SynRcvd", StateEstablished: "Established",
		StateReset: "Reset",
	} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q", int(s), s.String())
		}
	}
}

// TestStackNeverRebindsAKey pins the invariant the guest's fd table
// caches on: once a key is bound, Lookup returns the same *Conn for the
// stack's life. Torn-down connections stay in the table, a SYN that
// matches a dead connection's key goes to that connection, and Connect
// never reuses a local port still in the table.
func TestStackNeverRebindsAKey(t *testing.T) {
	p := newPair(t, DefaultConfig())
	bound := map[*Stack]map[ConnKey]*Conn{p.sa: {}, p.sb: {}}
	check := func(when string) {
		t.Helper()
		for s, seen := range bound {
			for _, c := range s.Conns() {
				if prev, ok := seen[c.Key()]; ok && prev != c {
					t.Fatalf("%s: %s rebound %v", when, s.Addr(), c.Key())
				}
				seen[c.Key()] = c
			}
			for key, c := range seen {
				if got, ok := s.Lookup(key); !ok || got != c {
					t.Fatalf("%s: %s lost or rebound %v", when, s.Addr(), key)
				}
			}
		}
	}
	ca, cb := p.connect(t)
	check("established")
	p.rst(ca)
	p.rst(cb)
	p.k.RunFor(sim.Second)
	if ca.State() != StateReset || cb.State() != StateReset {
		t.Fatalf("states %v/%v after peer RSTs, want Reset/Reset", ca.State(), cb.State())
	}
	check("reset")
	// A fresh SYN on the dead connection's exact key.
	p.sb.Deliver(netsim.Packet{Src: "A", Dst: "B", SrcID: p.fabric.Endpoint("A"), Size: HeaderSize, Payload: &Segment{
		SrcPort: ca.Key().LocalPort, DstPort: 5000, Flags: FlagSYN,
	}})
	p.k.RunFor(sim.Second)
	check("syn on a dead key")
	// A new connection to the same service gets a new key.
	cc, _ := p.connect(t)
	if cc.Key() == ca.Key() {
		t.Fatalf("Connect reused the dead key %v", ca.Key())
	}
	check("reconnect")
	p.sa.Freeze()
	p.sa.Thaw()
	p.sa.Release()
	p.sb.Release()
	check("release")
}
