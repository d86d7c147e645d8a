package tcp

import (
	"sort"

	"dvc/internal/netsim"
	"dvc/internal/payload"
	"dvc/internal/sim"
)

// ConnSnapshot is the pure-data image of one connection: everything a
// whole-VM checkpoint captures about a socket. Callbacks are not included;
// the guest re-registers them after restore.
type ConnSnapshot struct {
	Key   ConnKey
	State State

	SndUna, SndNxt uint64
	SendBuf        []byte

	RcvNxt  uint64
	RecvBuf []byte
	OOO     map[uint64][]byte

	RTO       sim.Time
	Retries   int
	TimerLeft sim.Time // remaining retransmit timer; -1 = not armed
	SRTT      sim.Time
	RTTVar    sim.Time
	HasRTT    bool

	Retransmits uint64
	DupSegments uint64
}

// StackSnapshot is the pure-data image of a whole stack. guest.Snapshot
// reaches it (Snapshot.Stack), so it is already inside that root's
// closure; declaring it a root here too means a field added in this
// package is flagged at this declaration, not two packages away.
//
//dvc:checkpoint-root
type StackSnapshot struct {
	Addr          netsim.Addr
	Config        Config
	Conns         []ConnSnapshot
	ListenerPorts []uint16
	NextPort      uint16
	Resets        uint64
	SegmentsSent  uint64
	SegmentsRcvd  uint64
}

// Snapshot captures the stack. The stack must be frozen first — capturing
// a running stack would race with its own timers, which is exactly the
// inconsistency LSC exists to avoid — and this method panics otherwise.
func (s *Stack) Snapshot() *StackSnapshot {
	if !s.frozen {
		panic("tcp: Snapshot of a stack that is not frozen")
	}
	snap := &StackSnapshot{
		Addr:         s.addr,
		Config:       s.cfg,
		NextPort:     s.nextPort,
		Resets:       s.resets,
		SegmentsSent: s.SegmentsSent,
		SegmentsRcvd: s.SegmentsRcvd,
	}
	ports := make([]uint16, 0, len(s.listeners))
	for port := range s.listeners {
		ports = append(ports, port)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	snap.ListenerPorts = ports
	snap.Conns = make([]ConnSnapshot, 0, len(s.conns))
	for _, c := range s.conns {
		// The queues flatten here — the checkpoint boundary — into
		// fresh contiguous buffers. On the hot path segments and reads
		// are zero-copy views over shared chunks; an image, by
		// contrast, must not alias live simulation state (it outlives
		// the connection and may be restored on another node), so this
		// is the one place the send/receive queues are copied.
		cs := ConnSnapshot{
			Key:         c.key,
			State:       c.state,
			SndUna:      c.sndUna,
			SndNxt:      c.sndNxt,
			SendBuf:     c.sendQ.copyOut(),
			RcvNxt:      c.rcvNxt,
			RecvBuf:     c.recvQ.copyOut(),
			RTO:         c.rto,
			Retries:     c.retries,
			TimerLeft:   c.timerLeft,
			SRTT:        c.srtt,
			RTTVar:      c.rttvar,
			HasRTT:      c.hasRTT,
			Retransmits: c.Retransmits,
			DupSegments: c.DupSegments,
		}
		if len(c.ooo) > 0 {
			cs.OOO = make(map[uint64][]byte, len(c.ooo))
			seqs := make([]uint64, 0, len(c.ooo))
			for seq := range c.ooo {
				seqs = append(seqs, seq)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			for _, seq := range seqs {
				data := c.ooo[seq]
				cs.OOO[seq] = data.AppendTo(make([]byte, 0, data.Len()))
			}
		}
		snap.Conns = append(snap.Conns, cs)
	}
	return snap
}

// RestoreStack rebuilds a stack from a snapshot in the frozen state. The
// caller thaws it once the VM resumes. The restored stack binds to the
// snapshot's address on the given fabric — which may now route to a
// different physical node (migration).
func RestoreStack(k *sim.Kernel, fabric *netsim.Fabric, snap *StackSnapshot) *Stack {
	s := NewStack(k, fabric, snap.Addr, snap.Config)
	s.frozen = true
	s.nextPort = snap.NextPort
	s.resets = snap.Resets
	s.SegmentsSent = snap.SegmentsSent
	s.SegmentsRcvd = snap.SegmentsRcvd
	for _, port := range snap.ListenerPorts {
		s.listeners[port] = &Listener{}
	}
	for _, cs := range snap.Conns {
		c := &Conn{
			stack:       s,
			key:         cs.Key,
			peer:        fabric.Endpoint(cs.Key.RemoteAddr),
			state:       cs.State,
			sndUna:      cs.SndUna,
			sndNxt:      cs.SndNxt,
			rcvNxt:      cs.RcvNxt,
			rto:         cs.RTO,
			retries:     cs.Retries,
			timerLeft:   cs.TimerLeft,
			srtt:        cs.SRTT,
			rttvar:      cs.RTTVar,
			hasRTT:      cs.HasRTT,
			Retransmits: cs.Retransmits,
			DupSegments: cs.DupSegments,
		}
		// The snapshot's buffers enter the restored queues by reference
		// (single-chunk ropes): Snapshot already produced fresh copies,
		// and snapshots are pure data under the payload immutability
		// contract — the same image can even be restored repeatedly,
		// since the queues only ever read the shared chunks.
		c.sendQ.push(payload.Wrap(cs.SendBuf))
		c.recvQ.push(payload.Wrap(cs.RecvBuf))
		if len(cs.OOO) > 0 {
			c.ooo = make(map[uint64]payload.Bytes, len(cs.OOO))
			seqs := make([]uint64, 0, len(cs.OOO))
			for seq := range cs.OOO {
				seqs = append(seqs, seq)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			for _, seq := range seqs {
				c.ooo[seq] = payload.Wrap(cs.OOO[seq])
			}
		}
		s.bind(c)
	}
	return s
}

// SetListenerAccept re-registers the accept callback for a restored
// listener port.
func (s *Stack) SetListenerAccept(port uint16, onAccept func(*Conn)) {
	if l, ok := s.listeners[port]; ok {
		l.OnAccept = onAccept
	}
}
