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
	// OnAccept fires when an incoming connection reaches Established.
	OnAccept func(*Conn)
}

// Stack is one endpoint's TCP implementation, bound to a fabric address.
// A guest OS owns exactly one stack; pausing the guest freezes the stack.
type Stack struct {
	kernel *sim.Kernel
	fabric *netsim.Fabric
	addr   netsim.Addr
	self   netsim.EndpointID // addr's id on fabric
	cfg    Config

	// The connection table, sorted by ConnKey: conns[i] is a connection
	// and rows[i] its demux row. A key is never removed (see Lookup).
	rows      []connRow
	conns     []*Conn
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
		self:      fabric.Endpoint(addr),
		cfg:       cfg,
		listeners: make(map[uint16]*Listener),
		nextPort:  ephemeralBase,
	}
}

// connRow is the part of a ConnKey that Deliver matches, with the remote
// address as its fabric id, so a demux compares integers only.
type connRow struct {
	lport, rport uint16
	peer         netsim.EndpointID
}

// portStart returns the first table index whose local port is at least
// lport: a binary search on the rows.
//
//dvc:hotpath
func (s *Stack) portStart(lport uint16) int {
	lo, hi := 0, len(s.rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.rows[mid].lport < lport {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// demux finds the connection bound to (lport, peer, rport): the local
// port's run of rows, then a scan of that run comparing ids.
//
//dvc:hotpath
func (s *Stack) demux(lport uint16, peer netsim.EndpointID, rport uint16) *Conn {
	for i := s.portStart(lport); i < len(s.rows) && s.rows[i].lport == lport; i++ {
		if r := s.rows[i]; r.peer == peer && r.rport == rport {
			return s.conns[i]
		}
	}
	return nil
}

// bind inserts c into the table at its key's place. The key must be
// unbound: a running stack binds only keys its table lacks, and a
// restored one binds an image's connections, which are in strictly
// increasing key order (Snapshot writes them so, and the guest image
// decoder checks it), so each lands at the end.
func (s *Stack) bind(c *Conn) {
	i := sort.Search(len(s.conns), func(i int) bool { return !s.conns[i].key.Less(c.key) })
	s.rows = append(s.rows, connRow{})
	copy(s.rows[i+1:], s.rows[i:])
	s.rows[i] = connRow{lport: c.key.LocalPort, rport: c.key.RemotePort, peer: c.peer}
	s.conns = append(s.conns, nil)
	copy(s.conns[i+1:], s.conns[i:])
	s.conns[i] = c
}

// Addr returns the stack's fabric address.
func (s *Stack) Addr() netsim.Addr { return s.addr }

// Config returns the stack's transport configuration.
func (s *Stack) Config() Config { return s.cfg }

// Resets reports how many connections have been reset (either side).
func (s *Stack) Resets() uint64 { return s.resets }

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
	l := &Listener{OnAccept: onAccept}
	s.listeners[port] = l
	return l
}

// The ephemeral port range, 49152–65535.
const (
	ephemeralBase  = 49152
	ephemeralPorts = 1<<16 - ephemeralBase
)

// Connect initiates a connection to raddr:rport from an ephemeral local
// port. The returned Conn is in SynSent; Notify fires when the
// handshake completes. Connect fails with ErrNoPorts once every
// ephemeral port is bound: a key stays bound for the stack's life (see
// Lookup), so ports are never reused.
func (s *Stack) Connect(raddr netsim.Addr, rport uint16) (*Conn, error) {
	lport, err := s.allocPort()
	if err != nil {
		return nil, err
	}
	c := &Conn{
		stack:     s,
		key:       ConnKey{LocalPort: lport, RemoteAddr: raddr, RemotePort: rport},
		peer:      s.fabric.Endpoint(raddr),
		state:     StateSynSent,
		rto:       s.cfg.InitialRTO,
		timerLeft: -1,
	}
	s.bind(c)
	c.sendCtl(FlagSYN, 0, 0)
	c.armTimer(c.rto)
	return c, nil
}

// allocPort returns the next free port from nextPort on, wrapping within
// the ephemeral range. One pass over the range finds every free port.
func (s *Stack) allocPort() (uint16, error) {
	for range ephemeralPorts + 1 {
		p := s.nextPort
		s.nextPort++
		if s.nextPort < ephemeralBase {
			s.nextPort = ephemeralBase
		}
		if i := s.portStart(p); i == len(s.rows) || s.rows[i].lport != p {
			return p, nil
		}
	}
	return 0, ErrNoPorts
}

// Conns returns the connections in key order. The slice is the stack's
// own table, kept sorted as connections open, so Conns neither copies
// nor sorts. Callers must not modify it or open a connection while they
// range over it.
func (s *Stack) Conns() []*Conn { return s.conns[:len(s.conns):len(s.conns)] }

// Lookup finds a connection by key, by binary search on the table. A key,
// once bound, stays bound to the same *Conn for the stack's life: the
// table only inserts absent keys, and a torn-down connection stays in it
// in the Closed or Reset state. Callers may therefore cache the result
// (the guest's fd table and ConnectOp do).
func (s *Stack) Lookup(key ConnKey) (*Conn, bool) {
	for i := s.portStart(key.LocalPort); i < len(s.conns) && s.rows[i].lport == key.LocalPort; i++ {
		if s.conns[i].key == key {
			return s.conns[i], true
		}
	}
	return nil, false
}

// Release retires the stack: it freezes it, then frees every
// connection's retransmit timer in key order. A timer's kernel slot pins
// its callback, which captures the connection and, through it, the
// stack, so a stack retired before its kernel (a destroyed guest's) must
// be released or it stays reachable for the rest of the run. A released
// stack must not be thawed. Release is idempotent.
func (s *Stack) Release() {
	s.Freeze()
	for _, c := range s.conns {
		c.timer.Free()
		c.timer = nil
	}
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

// transmit puts a segment on the fabric, addressed to dst, whose id is
// dstID. Frozen stacks cannot transmit; that can only happen from a stale
// event and is silently dropped (the wire would drop it anyway).
func (s *Stack) transmit(dst netsim.Addr, dstID netsim.EndpointID, seg *Segment) {
	if s.frozen {
		s.recycle(seg)
		return
	}
	s.SegmentsSent++
	s.fabric.Send(netsim.Packet{Src: s.addr, Dst: dst, SrcID: s.self, DstID: dstID, Size: seg.WireSize(), Payload: seg})
}

// Deliver feeds an incoming packet into the stack. The owner wires the
// netsim port's handler to this method. It demultiplexes by the packet's
// source id, so pkt.SrcID must be resolved on the stack's fabric (the
// fabric's deliveries are). A segment that reaches a running stack is
// recycled once handled; one that reaches a frozen stack is lost on the
// wire and left to the GC.
func (s *Stack) Deliver(pkt netsim.Packet) {
	if s.frozen {
		return // paused guest: lost on the wire
	}
	seg, ok := pkt.Payload.(*Segment)
	if !ok {
		return
	}
	s.SegmentsRcvd++
	if c := s.demux(seg.DstPort, pkt.SrcID, seg.SrcPort); c != nil {
		c.handle(seg)
	} else {
		s.handleUnbound(pkt, seg)
	}
	s.recycle(seg)
}

// handleUnbound answers a segment that matches no connection: a SYN to a
// listening port creates one; anything else but an RST is answered with
// an RST.
func (s *Stack) handleUnbound(pkt netsim.Packet, seg *Segment) {
	if seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) {
		if _, listening := s.listeners[seg.DstPort]; listening {
			c := &Conn{
				stack:     s,
				key:       ConnKey{LocalPort: seg.DstPort, RemoteAddr: pkt.Src, RemotePort: seg.SrcPort},
				peer:      pkt.SrcID,
				state:     StateSynRcvd,
				rcvNxt:    1,
				rto:       s.cfg.InitialRTO,
				timerLeft: -1,
			}
			s.bind(c)
			c.sendCtl(FlagSYN|FlagACK, 0, 1)
			c.armTimer(c.rto)
			return
		}
	}
	if !seg.Flags.Has(FlagRST) {
		rst := s.newSegment()
		*rst = Segment{SrcPort: seg.DstPort, DstPort: seg.SrcPort, Flags: FlagRST, Seq: seg.Ack, Ack: seg.Seq}
		s.transmit(pkt.Src, pkt.SrcID, rst)
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
	// Key order: freeze cancels retransmission timers, and the order
	// kernel events are touched in must not vary from run to run.
	for _, c := range s.conns {
		c.freeze()
	}
}

// Thaw resumes a frozen stack, re-arming timers from their remainders.
func (s *Stack) Thaw() {
	if !s.frozen {
		return
	}
	s.frozen = false
	// Key order: thaw re-arms timers, i.e. schedules kernel events,
	// whose sequence numbers must not depend on table history.
	for _, c := range s.conns {
		c.thaw()
	}
}
