package tcp

import (
	"fmt"
	"sort"

	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/sim"
)

// Stats are diagnostic data-plane counters. Unlike SegmentsSent/Rcvd
// and the per-connection counters captured in StackSnapshot, Stats
// deliberately stays OUT of the checkpoint image: adding fields here
// must not change the encoding (and hence the byte size) of saved
// VM images. Like the tracer, it is host-side observability that does
// not travel with snapshots.
type Stats struct {
	// OOODroppedBytes counts payload bytes of out-of-order segments
	// rejected because they ended beyond the receive window
	// (rcvNxt + SendWindow; this symmetric stack advertises its send
	// window as its receive window). An honest go-back-N peer never
	// triggers this — its unacknowledged span can only trail our
	// rcvNxt — so a non-zero count indicates a buggy or hostile peer.
	OOODroppedBytes uint64
}

// Listener accepts incoming connections on a local port.
type Listener struct {
	Port uint16
	// OnAccept fires when an incoming connection reaches Established.
	OnAccept func(*Conn)
}

// Stack is one endpoint's TCP implementation, bound to a fabric address.
// A guest OS owns exactly one stack; pausing the guest freezes the stack.
type Stack struct {
	kernel *sim.Kernel
	fabric *netsim.Fabric
	addr   netsim.Addr
	cfg    Config

	conns     map[ConnKey]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	frozen    bool
	resets    uint64

	// freeSegs is the segment free list (see Segment): Deliver returns
	// each handled segment to it, and newSegment takes from it.
	freeSegs *Segment

	// Observability. The tracer is not part of the snapshot: the owner
	// (vm/rm layer) re-attaches it after a restore, exactly like the
	// connection callbacks.
	tracer *obs.Tracer
	trNode string // hosting physical node id
	trDom  string // owning VM/domain name ("" for a native host stack)

	// SegmentsSent/SegmentsRcvd count transport activity for experiments.
	SegmentsSent uint64
	SegmentsRcvd uint64

	// Stats holds diagnostic counters that do not travel with snapshots
	// (see the Stats type).
	Stats Stats
}

// NewStack creates a stack bound to addr on the fabric. The caller is
// responsible for attaching a port for addr and routing its packets to
// Deliver (the vm/guest layer does this so it can interpose pause
// semantics).
func NewStack(k *sim.Kernel, fabric *netsim.Fabric, addr netsim.Addr, cfg Config) *Stack {
	return &Stack{
		kernel:    k,
		fabric:    fabric,
		addr:      addr,
		cfg:       cfg,
		conns:     make(map[ConnKey]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  49152,
	}
}

// Addr returns the stack's fabric address.
func (s *Stack) Addr() netsim.Addr { return s.addr }

// Config returns the stack's transport configuration.
func (s *Stack) Config() Config { return s.cfg }

// Resets reports how many connections have been reset (either side).
func (s *Stack) Resets() uint64 { return s.resets }

// Frozen reports whether the stack is currently frozen.
func (s *Stack) Frozen() bool { return s.frozen }

// SetTracer attaches an observability tracer and this stack's identity on
// the trace timeline (node = hosting physical node, dom = VM name). A nil
// tracer disables tracing. Like connection callbacks, the tracer does not
// travel with snapshots — the restoring owner re-attaches it.
func (s *Stack) SetTracer(t *obs.Tracer, node, dom string) {
	s.tracer = t
	s.trNode = node
	s.trDom = dom
}

// Listen registers a listener on port. It panics on a duplicate listen:
// port allocation is static in this simulation.
func (s *Stack) Listen(port uint16, onAccept func(*Conn)) *Listener {
	if _, dup := s.listeners[port]; dup {
		panic(fmt.Sprintf("tcp: duplicate listen on %s:%d", s.addr, port))
	}
	l := &Listener{Port: port, OnAccept: onAccept}
	s.listeners[port] = l
	return l
}

// Connect initiates a connection to raddr:rport from an ephemeral local
// port. The returned Conn is in SynSent; OnEstablished fires when the
// handshake completes.
func (s *Stack) Connect(raddr netsim.Addr, rport uint16) *Conn {
	lport := s.allocPort()
	key := ConnKey{LocalPort: lport, RemoteAddr: raddr, RemotePort: rport}
	c := &Conn{
		stack:     s,
		key:       key,
		state:     StateSynSent,
		rto:       s.cfg.InitialRTO,
		timerLeft: -1,
	}
	s.conns[key] = c
	c.sendCtl(FlagSYN, 0, 0)
	c.armTimer(c.rto)
	return c
}

func (s *Stack) allocPort() uint16 {
	for {
		p := s.nextPort
		s.nextPort++
		if s.nextPort < 49152 {
			s.nextPort = 49152
		}
		inUse := false
		for k := range s.conns {
			if k.LocalPort == p {
				inUse = true
				break
			}
		}
		if !inUse {
			return p
		}
	}
}

// Conns returns the live connections in deterministic (key-sorted) order.
func (s *Stack) Conns() []*Conn {
	keys := make([]ConnKey, 0, len(s.conns))
	for k := range s.conns {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	out := make([]*Conn, len(keys))
	for i, k := range keys {
		out[i] = s.conns[k]
	}
	return out
}

// Lookup finds a connection by key. A key, once bound, stays bound to the
// same *Conn for the stack's life: the table only inserts absent keys, and
// a torn-down connection stays in it in the Closed or Reset state. Callers
// may therefore cache the result (the guest's fd table does).
func (s *Stack) Lookup(key ConnKey) (*Conn, bool) {
	c, ok := s.conns[key]
	return c, ok
}

// Release retires the stack: it freezes it, then frees every
// connection's retransmit timer in key order. A timer's kernel slot pins
// its callback, which captures the connection and, through it, the
// stack, so a stack retired before its kernel (a destroyed guest's) must
// be released or it stays reachable for the rest of the run. A released
// stack must not be thawed. Release is idempotent.
func (s *Stack) Release() {
	s.Freeze()
	for _, c := range s.Conns() {
		c.timer.Free()
		c.timer = nil
	}
}

func lessKey(a, b ConnKey) bool {
	if a.LocalPort != b.LocalPort {
		return a.LocalPort < b.LocalPort
	}
	if a.RemoteAddr != b.RemoteAddr {
		return a.RemoteAddr < b.RemoteAddr
	}
	return a.RemotePort < b.RemotePort
}

// newSegment takes a zeroed segment from the free list, minting one only
// when the list is dry.
//
//dvc:hotpath
func (s *Stack) newSegment() *Segment {
	seg := s.freeSegs
	if seg == nil {
		return new(Segment) //lint:allow noalloc minted once per free-list entry, only when the list is dry
	}
	s.freeSegs = seg.next
	seg.next = nil
	return seg
}

// recycle returns a segment nothing references any more to the free list,
// dropping its payload reference for the GC.
func (s *Stack) recycle(seg *Segment) {
	*seg = Segment{next: s.freeSegs}
	s.freeSegs = seg
}

// transmit puts a segment on the fabric. Frozen stacks cannot transmit;
// that can only happen from a stale event and is silently dropped (the
// wire would drop it anyway).
func (s *Stack) transmit(dst netsim.Addr, seg *Segment) {
	if s.frozen {
		s.recycle(seg)
		return
	}
	s.SegmentsSent++
	s.fabric.Send(netsim.Packet{Src: s.addr, Dst: dst, Size: seg.WireSize(), Payload: seg})
}

// Deliver feeds an incoming packet into the stack. The owner wires the
// netsim port's handler to this method. A segment that reaches a running
// stack is recycled once handled; one that reaches a frozen stack is
// lost on the wire and left to the GC.
func (s *Stack) Deliver(pkt netsim.Packet) {
	if s.frozen {
		return // paused guest: lost on the wire
	}
	seg, ok := pkt.Payload.(*Segment)
	if !ok {
		return
	}
	s.SegmentsRcvd++
	key := ConnKey{LocalPort: seg.DstPort, RemoteAddr: pkt.Src, RemotePort: seg.SrcPort}
	if c, ok := s.conns[key]; ok {
		c.handle(seg)
	} else {
		s.handleUnbound(key, pkt.Src, seg)
	}
	s.recycle(seg)
}

// handleUnbound answers a segment that matches no connection: a SYN to a
// listening port creates one; anything else but an RST is answered with
// an RST.
func (s *Stack) handleUnbound(key ConnKey, src netsim.Addr, seg *Segment) {
	if seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) {
		if _, listening := s.listeners[seg.DstPort]; listening {
			c := &Conn{
				stack:     s,
				key:       key,
				state:     StateSynRcvd,
				rcvNxt:    1,
				rto:       s.cfg.InitialRTO,
				timerLeft: -1,
			}
			s.conns[key] = c
			c.sendCtl(FlagSYN|FlagACK, 0, 1)
			c.armTimer(c.rto)
			return
		}
	}
	if !seg.Flags.Has(FlagRST) {
		rst := s.newSegment()
		*rst = Segment{SrcPort: seg.DstPort, DstPort: seg.SrcPort, Flags: FlagRST, Seq: seg.Ack, Ack: seg.Seq}
		s.transmit(src, rst)
	}
}

// Freeze suspends the stack: retransmission timers stop (their remainders
// are recorded) and traffic is neither sent nor received. This is the
// transport half of a Xen "vm pause".
func (s *Stack) Freeze() {
	if s.frozen {
		return
	}
	s.frozen = true
	// Sorted order: freeze cancels retransmission timers, and cancelling
	// kernel events in randomized map order would perturb replay
	// (dvclint: mapiter).
	for _, c := range s.Conns() {
		c.freeze()
	}
}

// Thaw resumes a frozen stack, re-arming timers from their remainders.
func (s *Stack) Thaw() {
	if !s.frozen {
		return
	}
	s.frozen = false
	// Sorted order: thaw re-arms timers, i.e. schedules kernel events,
	// whose sequence numbers must not depend on map order.
	for _, c := range s.Conns() {
		c.thaw()
	}
}
