// Package tcp implements the reliable transport the paper's Lazy
// Synchronous Checkpointing argument rests on (§3, Scenarios 1–2):
// sequence numbers, cumulative ACKs, retransmission with exponentially
// backed-off timeouts, and a bounded retry budget after which the
// connection resets.
//
// Two properties matter for LSC and are modelled faithfully:
//
//  1. All transport state — unacknowledged send data, receive reassembly
//     state, retransmission timers — lives inside the endpoint and is
//     frozen and captured with it (Freeze/Snapshot/Restore). A message
//     that was on the wire at snapshot time is simply lost and
//     re-transmitted after restore; an ACK that was lost causes a
//     duplicate that the receiver re-ACKs and discards.
//
//  2. The retry budget is finite. A running endpoint whose peer is frozen
//     keeps retransmitting into the void; when retries exhaust, the
//     connection resets and the application dies. This is exactly the
//     failure mode of the naive LSC coordinator when save skew exceeds
//     the retransmission budget.
//
// A connection's owner learns of progress through one wake-up,
// Conn.Notify, and re-reads the connection to see what changed; a
// listener's OnAccept hands over each new connection.
package tcp

import (
	"fmt"

	"dvc/internal/payload"
	"dvc/internal/sim"
)

// Flags are TCP header control bits (the subset we model).
type Flags uint8

// Control bits. Bit 2 (FIN in real TCP) is unused: a connection ends only
// by reset.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	_
	FlagRST
)

func (f Flags) Has(bit Flags) bool { return f&bit != 0 }

func (f Flags) String() string {
	s := ""
	if f.Has(FlagSYN) {
		s += "S"
	}
	if f.Has(FlagACK) {
		s += "A"
	}
	if f.Has(FlagRST) {
		s += "R"
	}
	if s == "" {
		return "-"
	}
	return s
}

// HeaderSize is the modelled per-segment wire overhead (IP + TCP headers).
const HeaderSize = 40

// Segment is one TCP segment. Sequence numbers are 64-bit and never wrap;
// the simulation does not move enough bytes for wrap-around to matter.
//
// Data is a zero-copy view into the sender's send queue: putting a
// segment "on the wire" (a netsim delivery record) shares the sender's
// chunks with the receiver instead of copying payload bytes. This is
// safe under the payload package's immutability contract — chunks are
// never mutated once queued, and everything runs on one kernel's event
// loop.
//
// A stack's segments are records from its free list (Stack.newSegment).
// A delivered segment belongs to the receiving stack, which recycles it
// once Conn.handle returns: the receive queue and the out-of-order stash
// keep rope values, never the *Segment. A segment dropped on the wire or
// at a frozen stack is left to the GC.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint64
	Flags            Flags
	Data             payload.Bytes

	next *Segment // free-list link
}

// WireSize is the segment's size on the fabric.
func (s *Segment) WireSize() int { return HeaderSize + s.Data.Len() }

func (s *Segment) String() string {
	return fmt.Sprintf("[%d->%d %s seq=%d ack=%d len=%d]",
		s.SrcPort, s.DstPort, s.Flags, s.Seq, s.Ack, s.Data.Len())
}

// Config tunes the transport. The retry budget — the sum of backed-off
// RTOs before a reset — is the quantity LSC must stay inside.
type Config struct {
	// MSS is the maximum segment payload. It is deliberately large
	// (jumbo-frame abstraction) to keep event counts manageable.
	MSS int
	// InitialRTO is the retransmission timeout before any RTT estimate.
	InitialRTO sim.Time
	// MinRTO and MaxRTO clamp the adaptive RTO.
	MinRTO, MaxRTO sim.Time
	// MaxRetries is how many consecutive retransmissions of the same
	// data are attempted before the connection resets.
	MaxRetries int
	// SendWindow bounds in-flight (unacknowledged) bytes.
	SendWindow int
}

// DefaultConfig matches a Linux 2.6-era stack tuned for a low-latency
// cluster: 200 ms minimum RTO and a retry budget of
// 0.2+0.4+0.8+1.6+3.2 ≈ 6 s (4 retries, then the fifth timeout resets).
// The paper's LSC window is this budget.
func DefaultConfig() Config {
	return Config{
		MSS:        64 << 10,
		InitialRTO: 200 * sim.Millisecond,
		MinRTO:     200 * sim.Millisecond,
		MaxRTO:     120 * sim.Second,
		MaxRetries: 4,
		SendWindow: 256 << 10,
	}
}

// RetryBudget returns the worst-case time between a peer freezing and this
// endpoint resetting an active connection: the sum of the backed-off RTOs
// starting from rto0.
func (c Config) RetryBudget(rto0 sim.Time) sim.Time {
	if rto0 < c.MinRTO {
		rto0 = c.MinRTO
	}
	var total sim.Time
	rto := rto0
	for i := 0; i <= c.MaxRetries; i++ {
		total += rto
		rto *= 2
		if rto > c.MaxRTO {
			rto = c.MaxRTO
		}
	}
	return total
}

// Errors the stack returns. ErrReset and ErrTimeout are also the two
// causes of a reset, which the tcp.reset trace record reports as its why
// ("peer-rst", "retry-budget").
var (
	ErrReset   = fmt.Errorf("tcp: connection reset by peer")
	ErrTimeout = fmt.Errorf("tcp: retransmission retries exhausted")
	ErrClosed  = fmt.Errorf("tcp: connection closed")
	ErrNoPorts = fmt.Errorf("tcp: every ephemeral port is bound")
)
