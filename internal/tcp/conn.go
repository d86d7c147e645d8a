package tcp

import (
	"fmt"

	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/payload"
	"dvc/internal/sim"
)

// State is a connection's lifecycle state.
type State int

// Connection states (a condensed version of the TCP state machine; the
// TIME_WAIT family is collapsed into Closed).
const (
	StateSynSent State = iota
	StateSynRcvd
	StateEstablished
	StateClosing // FIN sent or received, not yet fully closed
	StateClosed
	StateReset
)

func (s State) String() string {
	switch s {
	case StateSynSent:
		return "SynSent"
	case StateSynRcvd:
		return "SynRcvd"
	case StateEstablished:
		return "Established"
	case StateClosing:
		return "Closing"
	case StateClosed:
		return "Closed"
	case StateReset:
		return "Reset"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ConnKey uniquely identifies a connection at one endpoint.
type ConnKey struct {
	LocalPort  uint16
	RemoteAddr netsim.Addr
	RemotePort uint16
}

func (k ConnKey) String() string {
	return fmt.Sprintf(":%d<->%s:%d", k.LocalPort, k.RemoteAddr, k.RemotePort)
}

// Less orders keys by local port, remote address and remote port: the
// order of a stack's connection table and of an image's connections.
func (k ConnKey) Less(o ConnKey) bool {
	if k.LocalPort != o.LocalPort {
		return k.LocalPort < o.LocalPort
	}
	if k.RemoteAddr != o.RemoteAddr {
		return k.RemoteAddr < o.RemoteAddr
	}
	return k.RemotePort < o.RemotePort
}

// Conn is one endpoint of a connection. All methods must be called from
// simulation context (never concurrently).
//
// Callbacks (OnReadable, OnEstablished, OnError) are not part of the
// snapshot; the owner re-registers them after a restore.
type Conn struct {
	stack *Stack
	key   ConnKey
	peer  netsim.EndpointID // key.RemoteAddr's id on the stack's fabric
	state State

	// Send side. sendQ holds bytes [sndUna, sndUna+len) — both unacked
	// and not-yet-transmitted data — as shared chunk references;
	// segments carry zero-copy views into it, and ACK consumption
	// releases chunk backing arrays instead of pinning them.
	sndUna, sndNxt uint64
	sendQ          chunkRing
	closeRequested bool
	finSent        bool
	finAcked       bool

	// Receive side. recvQ accumulates in-order segment payloads by
	// reference (the chunks are the sender's own send-queue chunks,
	// shared across the simulated wire); ooo stashes out-of-order
	// segment views, bounded by the receive window (== SendWindow in
	// this symmetric stack), with rejected bytes counted in
	// Stack.Stats.OOODroppedBytes.
	rcvNxt    uint64
	recvQ     chunkRing
	ooo       map[uint64]payload.Bytes // out-of-order segments keyed by seq
	oooBytes  int                      // total bytes stashed in ooo
	remoteFin bool
	finRcvd   bool // FIN consumed into rcvNxt

	// Retransmission. The RTO timer is a rearmable sim.Timer: every ACK
	// rearms it in place (Reset) instead of cancelling and reallocating a
	// kernel event — the per-segment hot path allocates nothing.
	rto        sim.Time
	retries    int
	timer      *sim.Timer
	timerLeft  sim.Time // remaining time while frozen; -1 when no timer
	srtt       sim.Time
	rttvar     sim.Time
	hasRTT     bool
	rttSeq     uint64   // segment end being timed (0 = none)
	rttSentAt  sim.Time // when it was sent
	retransHit bool     // Karn: a retransmission invalidates the sample

	// Counters for experiments.
	Retransmits uint64
	DupSegments uint64

	// Callbacks, owned by the guest layer.
	OnReadable    func()
	OnEstablished func()
	OnError       func(error)
	OnAck         func() // fires when sndUna advances (send progress)
}

// Key returns the connection's demux key.
func (c *Conn) Key() ConnKey { return c.key }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Write queues data for transmission without copying it: the slice's
// chunks enter the send queue by reference, so the caller hands over
// visibility of data under the payload package's immutability contract
// (nobody mutates it afterwards). Write
// never blocks; the guest layer is responsible for modelling
// back-pressure via SendBacklog.
func (c *Conn) Write(data []byte) error {
	return c.WritePayload(payload.Wrap(data))
}

// WritePayload queues a rope for transmission by reference — the
// zero-copy entry point the mpi framing layer uses to send
// header+body messages without materialising the frame.
func (c *Conn) WritePayload(p payload.Bytes) error {
	switch c.state {
	case StateReset:
		return ErrReset
	case StateClosed:
		return ErrClosed
	}
	if c.closeRequested {
		return ErrClosed
	}
	c.sendQ.push(p)
	c.trySend()
	return nil
}

// SendBacklog reports bytes queued but not yet acknowledged.
func (c *Conn) SendBacklog() int { return c.sendQ.len() }

// Readable reports how many bytes are ready for the application.
func (c *Conn) Readable() int { return c.recvQ.len() }

// EOF reports whether the peer has closed its direction and all data has
// been drained.
func (c *Conn) EOF() bool { return c.finRcvd && c.recvQ.len() == 0 }

// Read consumes up to n bytes from the receive queue as a contiguous
// slice, flattening across segment boundaries if the range spans
// multiple received chunks (the application-delivery copy — the only
// one left on the receive path).
func (c *Conn) Read(n int) []byte {
	return c.ReadPayload(n).Flatten()
}

// ReadPayload consumes up to n bytes from the receive queue as a
// zero-copy rope over the received chunks.
func (c *Conn) ReadPayload(n int) payload.Bytes {
	if n > c.recvQ.len() {
		n = c.recvQ.len()
	}
	out := c.recvQ.view(0, n)
	c.recvQ.consume(n)
	return out
}

// Close requests a graceful close: remaining data is sent, then FIN.
// Only tests call it; ConnSnapshot encodes the FIN handshake it starts.
func (c *Conn) Close() {
	if c.closeRequested || c.state == StateClosed || c.state == StateReset {
		return
	}
	c.closeRequested = true
	c.trySend()
}

// Abort sends RST and tears the connection down immediately. Only tests
// call it; ConnSnapshot encodes the state its teardown leaves.
func (c *Conn) Abort() {
	if c.state == StateClosed || c.state == StateReset {
		return
	}
	c.sendCtl(FlagRST, c.sndNxt, c.rcvNxt)
	c.teardown(StateClosed, nil)
}

// --- internals ---

func (c *Conn) now() sim.Time { return c.stack.kernel.Now() }

// sendSegment transmits a segment carrying data to the peer, in a
// segment record taken from the stack's free list.
func (c *Conn) sendSegment(flags Flags, seq, ack uint64, data payload.Bytes) {
	seg := c.stack.newSegment()
	seg.SrcPort = c.key.LocalPort
	seg.DstPort = c.key.RemotePort
	seg.Flags, seg.Seq, seg.Ack, seg.Data = flags, seq, ack, data
	c.stack.transmit(c.key.RemoteAddr, c.peer, seg)
}

// sendCtl transmits a segment that carries no data.
func (c *Conn) sendCtl(flags Flags, seq, ack uint64) {
	c.sendSegment(flags, seq, ack, payload.Bytes{})
}

// trySend pushes new data/FIN within the send window and manages the
// retransmit timer.
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateClosing {
		return
	}
	inFlight := func() int { return int(c.sndNxt - c.sndUna) }
	sent := false
	for {
		unsent := int(c.sndUna) + c.sendQ.len() - int(c.sndNxt)
		if unsent <= 0 || inFlight() >= c.stack.cfg.SendWindow {
			break
		}
		n := unsent
		if n > c.stack.cfg.MSS {
			n = c.stack.cfg.MSS
		}
		if room := c.stack.cfg.SendWindow - inFlight(); n > room {
			n = room
		}
		off := int(c.sndNxt - c.sndUna)
		data := c.sendQ.view(off, n)
		// Time this segment for RTT if nothing is being timed.
		if c.rttSeq == 0 {
			c.rttSeq = c.sndNxt + uint64(n)
			c.rttSentAt = c.now()
			c.retransHit = false
		}
		c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, data)
		c.sndNxt += uint64(n)
		sent = true
	}
	// FIN once everything queued has been transmitted.
	if c.closeRequested && !c.finSent && int(c.sndNxt-c.sndUna) == c.sendQ.len() {
		c.sendCtl(FlagFIN|FlagACK, c.sndNxt, c.rcvNxt)
		c.sndNxt++
		c.finSent = true
		if c.state == StateEstablished {
			c.state = StateClosing
		}
		sent = true
	}
	if sent && !c.timer.Pending() {
		c.armTimer(c.rto)
	}
}

func (c *Conn) armTimer(d sim.Time) {
	if c.timer == nil {
		c.timer = sim.NewTimer(c.stack.kernel, c.onTimeout)
	}
	c.timer.Reset(d)
}

func (c *Conn) stopTimer() {
	c.timer.Stop()
	c.timerLeft = -1
}

// onTimeout is the retransmission timer: back off, resend the earliest
// outstanding segment, and reset the connection when the budget is gone.
func (c *Conn) onTimeout() {
	if c.outstanding() == 0 {
		return
	}
	c.retries++
	if c.retries > c.stack.cfg.MaxRetries {
		c.sendCtl(FlagRST, c.sndNxt, c.rcvNxt)
		c.teardown(StateReset, ErrTimeout)
		return
	}
	c.Retransmits++
	c.retransHit = true
	c.rto *= 2
	if c.rto > c.stack.cfg.MaxRTO {
		c.rto = c.stack.cfg.MaxRTO
	}
	if tr := c.stack.tracer; tr != nil {
		now := c.now()
		tr.Emit(now, obs.EvTCPRetransmit, c.stack.trNode, c.stack.trDom, "rexmit",
			obs.Str("conn", c.key.String()), obs.Int("retry", int64(c.retries)))
		tr.Emit(now, obs.EvTCPRTOBackoff, c.stack.trNode, c.stack.trDom, "rto-backoff",
			obs.Str("conn", c.key.String()), obs.Dur("rto", c.rto))
		tr.Inc("tcp.retransmits", 1)
		tr.Observe("tcp.rto_ms", float64(c.rto)/1e6)
	}
	c.retransmitHead()
	c.armTimer(c.rto)
}

// outstanding reports unacknowledged sequence space (data + SYN/FIN).
func (c *Conn) outstanding() uint64 {
	if c.state == StateSynSent || c.state == StateSynRcvd {
		return 1
	}
	return c.sndNxt - c.sndUna
}

// retransmitHead resends the earliest unacknowledged unit and collapses
// the send window to it (go-back-N): a timeout usually means the whole
// in-flight window is gone, so the rest is re-sent by trySend as ACKs
// come back — one window per RTT instead of one segment per RTO.
func (c *Conn) retransmitHead() {
	switch c.state {
	case StateSynSent:
		c.sendCtl(FlagSYN, 0, 0)
		return
	case StateSynRcvd:
		c.sendCtl(FlagSYN|FlagACK, 0, c.rcvNxt)
		return
	}
	dataLen := c.sendQ.len()
	if dataLen > 0 && c.sndNxt > c.sndUna {
		// Resend first segment of unacked data.
		n := dataLen
		if n > c.stack.cfg.MSS {
			n = c.stack.cfg.MSS
		}
		if avail := int(c.sndNxt - c.sndUna); n > avail {
			n = avail
		}
		if n > 0 {
			c.sendSegment(FlagACK, c.sndUna, c.rcvNxt, c.sendQ.view(0, n))
			// Go-back-N: anything beyond the head is presumed lost and
			// will be re-sent by trySend; a previously sent FIN moves
			// back with it.
			if back := c.sndUna + uint64(n); c.sndNxt > back {
				c.sndNxt = back
				if c.finSent && !c.finAcked {
					c.finSent = false
					if c.state == StateClosing && !c.finRcvd {
						c.state = StateEstablished
					}
				}
			}
			return
		}
	}
	if c.finSent && !c.finAcked {
		c.sendCtl(FlagFIN|FlagACK, c.sndNxt-1, c.rcvNxt)
	}
}

// handle processes an incoming segment addressed to this connection.
func (c *Conn) handle(seg *Segment) {
	if seg.Flags.Has(FlagRST) {
		c.teardown(StateReset, ErrReset)
		return
	}
	switch c.state {
	case StateSynSent:
		if seg.Flags.Has(FlagSYN) && seg.Flags.Has(FlagACK) {
			c.state = StateEstablished
			c.sndUna, c.sndNxt = 1, 1
			c.rcvNxt = 1
			c.retries = 0
			c.stopTimer()
			// Pure ACK completes the handshake.
			c.sendCtl(FlagACK, c.sndNxt, c.rcvNxt)
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			c.trySend()
		}
		return
	case StateSynRcvd:
		if seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) {
			// Duplicate SYN: our SYN|ACK was lost.
			c.sendCtl(FlagSYN|FlagACK, 0, c.rcvNxt)
			return
		}
		if seg.Flags.Has(FlagACK) && seg.Ack >= 1 {
			c.state = StateEstablished
			c.sndUna, c.sndNxt = 1, 1
			c.retries = 0
			c.stopTimer()
			if l := c.stack.listeners[c.key.LocalPort]; l != nil && l.OnAccept != nil {
				l.OnAccept(c)
			}
			// Fall through to process any data riding on this segment.
		} else {
			return
		}
	case StateClosed, StateReset:
		c.sendCtl(FlagRST, c.sndNxt, c.rcvNxt)
		return
	}

	if seg.Flags.Has(FlagSYN) {
		// A retransmitted SYN|ACK reaching an established connection
		// means our final handshake ACK was lost: re-ACK so the peer can
		// leave SynRcvd.
		c.sendAck()
		return
	}
	if seg.Flags.Has(FlagACK) {
		c.processAck(seg.Ack)
	}
	if seg.Data.Len() > 0 {
		c.processData(seg)
	}
	if seg.Flags.Has(FlagFIN) {
		c.processFin(seg)
	}
}

func (c *Conn) processAck(ack uint64) {
	if ack <= c.sndUna {
		return
	}
	if ack > c.sndNxt {
		ack = c.sndNxt // peer acking beyond what we sent: clamp
	}
	advanced := ack - c.sndUna
	// Consume acked bytes from the buffer. The FIN occupies sequence
	// space but no buffer space.
	bufAdvance := advanced
	if c.finSent && ack == c.sndNxt {
		c.finAcked = true
		if bufAdvance > 0 {
			bufAdvance--
		}
	}
	if int(bufAdvance) > c.sendQ.len() {
		bufAdvance = uint64(c.sendQ.len())
	}
	// Acked bytes leave the queue; fully consumed chunks release their
	// backing arrays (no reslice-pinning).
	c.sendQ.consume(int(bufAdvance))
	c.sndUna = ack
	c.retries = 0

	// RTT sample (Karn's algorithm: skip if a retransmission happened).
	if c.rttSeq != 0 && ack >= c.rttSeq {
		if !c.retransHit {
			c.rttSample(c.now() - c.rttSentAt)
		}
		c.rttSeq = 0
	}
	// New progress collapses any backed-off RTO to the estimate again
	// (real stacks recompute RTO from srtt/rttvar on each ACK; without
	// this, one burst of timeouts leaves the timer exponentially slow).
	c.refreshRTO()

	if c.outstanding() == 0 {
		c.stopTimer()
	} else {
		c.armTimer(c.rto)
	}
	c.maybeFinishClose()
	c.trySend()
	if c.OnAck != nil {
		c.OnAck()
	}
}

func (c *Conn) rttSample(sample sim.Time) {
	if sample < 0 {
		return
	}
	if !c.hasRTT {
		c.srtt = sample
		c.rttvar = sample / 2
		c.hasRTT = true
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.refreshRTO()
}

// refreshRTO recomputes the timeout from the current estimate, undoing
// exponential backoff once the connection is making progress.
func (c *Conn) refreshRTO() {
	var rto sim.Time
	if c.hasRTT {
		rto = c.srtt + 4*c.rttvar
	} else {
		rto = c.stack.cfg.InitialRTO
	}
	if rto < c.stack.cfg.MinRTO {
		rto = c.stack.cfg.MinRTO
	}
	if rto > c.stack.cfg.MaxRTO {
		rto = c.stack.cfg.MaxRTO
	}
	c.rto = rto
}

func (c *Conn) processData(seg *Segment) {
	end := seg.Seq + uint64(seg.Data.Len())
	switch {
	case end <= c.rcvNxt:
		// Complete duplicate (e.g. our ACK was lost at the snapshot —
		// Scenario 2). Re-ACK and discard.
		c.DupSegments++
		c.sendAck()
	case seg.Seq > c.rcvNxt:
		// Out of order: stash a zero-copy view and duplicate-ACK. The
		// stash is bounded by the receive window (this symmetric stack
		// advertises SendWindow both ways): an honest go-back-N peer
		// never sends past rcvNxt+window, because its sndUna can only
		// trail our rcvNxt — so the bound drops nothing in normal
		// operation and exists to stop a buggy or hostile peer from
		// growing the map without limit.
		if end > c.rcvNxt+uint64(c.stack.cfg.SendWindow) {
			c.stack.Stats.OOODroppedBytes += uint64(seg.Data.Len())
			c.sendAck()
			return
		}
		if c.ooo == nil {
			c.ooo = make(map[uint64]payload.Bytes)
		}
		if old, dup := c.ooo[seg.Seq]; dup {
			c.oooBytes -= old.Len()
		}
		c.ooo[seg.Seq] = seg.Data
		c.oooBytes += seg.Data.Len()
		c.sendAck()
	default:
		// In order (possibly with an already-received prefix). The
		// segment's chunks enter the receive queue by reference.
		skip := int(c.rcvNxt - seg.Seq)
		c.recvQ.push(seg.Data.Slice(skip, seg.Data.Len()))
		c.rcvNxt = end
		// Drain contiguous out-of-order segments.
		for {
			data, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.oooBytes -= data.Len()
			c.recvQ.push(data)
			c.rcvNxt += uint64(data.Len())
		}
		c.sendAck()
		if c.OnReadable != nil {
			c.OnReadable()
		}
	}
}

func (c *Conn) processFin(seg *Segment) {
	finSeq := seg.Seq + uint64(seg.Data.Len())
	if finSeq != c.rcvNxt {
		// FIN for data we have not seen yet (or a duplicate): if it is a
		// duplicate, re-ACK.
		if finSeq < c.rcvNxt {
			c.sendAck()
		}
		return
	}
	if !c.finRcvd {
		c.rcvNxt++
		c.finRcvd = true
		c.remoteFin = true
		if c.state == StateEstablished {
			c.state = StateClosing
		}
		if c.OnReadable != nil {
			c.OnReadable() // EOF is a readability event
		}
	}
	c.sendAck()
	c.maybeFinishClose()
}

func (c *Conn) maybeFinishClose() {
	if c.finRcvd && c.finSent && c.finAcked && c.state != StateClosed {
		c.teardown(StateClosed, nil)
	}
}

func (c *Conn) sendAck() {
	c.sendCtl(FlagACK, c.sndNxt, c.rcvNxt)
}

// teardown finalises the connection and notifies the owner on error.
func (c *Conn) teardown(state State, err error) {
	c.state = state
	c.stopTimer()
	// A torn-down connection never rearms (trySend and handle() bail on
	// Closed/Reset states), so return the timer's slot to the kernel pool.
	c.timer.Free()
	c.timer = nil
	if err != nil && c.OnError != nil {
		c.OnError(err)
	}
	if state == StateReset {
		c.stack.resets++
		if tr := c.stack.tracer; tr != nil {
			why := "peer-rst"
			if err == ErrTimeout {
				why = "retry-budget"
			}
			tr.Emit(c.now(), obs.EvTCPReset, c.stack.trNode, c.stack.trDom, "reset",
				obs.Str("conn", c.key.String()), obs.Str("why", why))
			tr.Inc("tcp.resets", 1)
		}
	}
}

// freeze cancels the live retransmission timer, recording its remainder.
// Guest jiffy timers do not advance while the VM is suspended.
func (c *Conn) freeze() {
	if c.timer.Pending() {
		c.timerLeft = c.timer.When() - c.now()
		c.timer.Stop()
	} else {
		c.timerLeft = -1
	}
}

// thaw re-arms the retransmission timer from its recorded remainder.
func (c *Conn) thaw() {
	if c.timerLeft >= 0 {
		c.armTimer(c.timerLeft)
		c.timerLeft = -1
	}
}
