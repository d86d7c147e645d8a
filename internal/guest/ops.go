package guest

import (
	"dvc/internal/imgcodec"
	"dvc/internal/netsim"
	"dvc/internal/payload"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

// Op is a blocking guest operation. Concrete op types are pure data and
// imgcodec-registered: an in-progress operation is part of the VM image.
type Op interface {
	// start arms the operation (timers, writes, connection setup).
	start(o *OS, p *Process)
	// poll checks for completion and produces the result.
	poll(o *OS, p *Process) (Result, bool)
}

func init() {
	imgcodec.Register(&ComputeOp{})
	imgcodec.Register(&SendOp{})
	imgcodec.Register(&RecvOp{})
	imgcodec.Register(&ConnectOp{})
	imgcodec.Register(&AcceptOp{})
}

// ComputeOp burns CPU for the given nominal duration. The actual duration
// is scaled by the VM's CPU overhead factor, so the same program runs
// slightly slower inside a para-virtualised guest — experiment E7.
type ComputeOp struct {
	Duration sim.Time
	Started  bool
}

func (op *ComputeOp) start(o *OS, p *Process) {
	if !op.Started {
		op.Started = true
		p.armTimer(o, sim.Time(float64(op.Duration)*o.cpuFactor))
	}
}

func (op *ComputeOp) poll(o *OS, p *Process) (Result, bool) {
	return Result{}, p.timerFired
}

// SendOp writes data to a socket. It completes when the transport has
// acknowledged enough that the send backlog fits inside the send window —
// i.e. the sender is paced by the wire, like a blocking write on a
// bounded socket buffer.
//
// Data is a payload rope handed to the transport by reference: no byte
// is copied between the program and the TCP send queue. The rope is
// encodable (an op not yet polled is part of the VM image) and
// subject to the payload immutability contract — programs build a fresh
// buffer per message.
type SendOp struct {
	FD      int
	Data    payload.Bytes
	Len     int
	Written bool
}

// Send returns an op that writes data to fd (zero-copy: data is wrapped,
// not copied — the program gives up the right to mutate it).
func Send(fd int, data []byte) *SendOp {
	return &SendOp{FD: fd, Data: payload.Wrap(data), Len: len(data)}
}

func (op *SendOp) start(o *OS, p *Process) {}

func (op *SendOp) poll(o *OS, p *Process) (Result, bool) {
	c, ok := o.conn(op.FD)
	if !ok {
		return Result{Err: tcp.ErrClosed}, true
	}
	if !op.Written {
		if err := c.WritePayload(op.Data); err != nil {
			return Result{Err: err}, true
		}
		op.Written = true
		op.Data = payload.Bytes{} // handed to the transport; don't checkpoint twice
	}
	if c.State() == tcp.StateReset {
		return Result{Err: tcp.ErrReset}, true
	}
	if c.SendBacklog() <= o.stack.Config().SendWindow {
		return Result{N: op.Len}, true
	}
	return Result{}, false
}

// RecvOp reads exactly N bytes from a socket (or reports an error).
type RecvOp struct {
	FD int
	N  int
}

func (op *RecvOp) start(o *OS, p *Process) {}

func (op *RecvOp) poll(o *OS, p *Process) (Result, bool) {
	c, ok := o.conn(op.FD)
	if !ok {
		return Result{Err: tcp.ErrClosed}, true
	}
	if c.Readable() >= op.N {
		return Result{Data: c.Read(op.N), N: op.N}, true
	}
	if c.State() == tcp.StateReset {
		return Result{Err: tcp.ErrReset}, true
	}
	return Result{}, false
}

// ConnectOp opens a connection to a remote guest.
type ConnectOp struct {
	Addr    netsim.Addr
	Port    uint16
	Started bool
	Key     tcp.ConnKey
}

// Connect returns an op that dials addr:port.
func Connect(addr netsim.Addr, port uint16) *ConnectOp {
	return &ConnectOp{Addr: addr, Port: port}
}

func (op *ConnectOp) start(o *OS, p *Process) {
	p.dial, p.dialErr = nil, nil
	if !op.Started {
		op.Started = true
		c, err := o.stack.Connect(op.Addr, op.Port)
		if err != nil {
			p.dialErr = err
			return
		}
		op.Key = c.Key()
		p.dial = c
		c.Notify = o.schedulePump
	}
}

// poll reads the connection start opened from the process, so only the
// first poll after a restore looks the key up.
func (op *ConnectOp) poll(o *OS, p *Process) (Result, bool) {
	if p.dialErr != nil {
		return Result{Err: p.dialErr}, true
	}
	c := p.dial
	if c == nil {
		var ok bool
		if c, ok = o.stack.Lookup(op.Key); !ok {
			return Result{Err: tcp.ErrClosed}, true
		}
		p.dial = c
	}
	switch c.State() {
	case tcp.StateEstablished:
		return Result{FD: o.newFD(op.Key, c)}, true
	case tcp.StateReset:
		return Result{Err: tcp.ErrReset}, true
	}
	return Result{}, false
}

// AcceptOp takes the next queued inbound connection on a listening port.
type AcceptOp struct {
	Port uint16
}

// Accept returns an op that accepts one connection on port (which must
// have been opened with OS.Listen).
func Accept(port uint16) *AcceptOp { return &AcceptOp{Port: port} }

func (op *AcceptOp) start(o *OS, p *Process) {}

func (op *AcceptOp) poll(o *OS, p *Process) (Result, bool) {
	q := o.accepts[op.Port]
	if len(q) == 0 {
		return Result{}, false
	}
	key := q[0]
	o.accepts[op.Port] = q[1:]
	c, _ := o.stack.Lookup(key)
	return Result{FD: o.newFD(key, c)}, true
}
