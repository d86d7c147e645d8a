// Package mpi implements a small message-passing runtime for guest
// programs: ranks with stable identities, point-to-point tagged messages,
// and the collectives the HPCC workloads need (barrier, broadcast,
// reduce, allreduce, all-to-all).
//
// The runtime is deliberately an *unmodified application* from the
// checkpoint layer's point of view: everything runs over ordinary guest
// sockets on the simulated TCP stack, with no checkpoint hooks — the
// transparency DVC claims (§2: "if the application can be saved and
// restarted without being aware of the checkpoint, then all applications
// can be checkpointed").
//
// Programs are resumable state machines (see package guest); MPI
// operations are therefore themselves resumable sub-machines that the
// Driver steps through.
//
// An application's point-to-point and compute ops come from Ctx.Send,
// Ctx.Recv and Ctx.Compute, which refill one slot per kind in the rank's
// runtime-only scratch state (guest.API.Scratch) instead of allocating.
// The slot rule: an op, and the prev it comes back as, stays valid until
// the application asks Ctx for its next op of the same kind, so an
// application reads prev (RecvMsg.Data, say) before it builds that op.
// Message headers are interned per rank by (tag, length), so a
// steady-state halo round allocates nothing in this package.
package mpi

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"dvc/internal/guest"
	"dvc/internal/imgcodec"
	"dvc/internal/netsim"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&Driver{})
	imgcodec.Register(&initOp{})
}

// Runtime is a rank's communication state. It is created by NewDriver and
// becomes ready after the connection mesh is established.
type Runtime struct {
	Me       int
	Size     int
	Addrs    []netsim.Addr // fabric address of each rank
	BasePort uint16
	FDs      []int // socket per peer; -1 for self / not yet connected

	Ready  bool
	Failed string // first fatal communication error
}

// Port returns the listening port for rank r.
func (rt *Runtime) Port(r int) uint16 { return rt.BasePort + uint16(r) }

// Fail records a fatal error; the driver exits the process with status 1.
func (rt *Runtime) Fail(format string, args ...any) {
	if rt.Failed == "" {
		rt.Failed = fmt.Sprintf(format, args...)
	}
}

// Ctx gives an application access to its rank state, its op
// constructors and the guest syscall surface (clocks, logging) during a
// Step call. It is passed by value, so stepping an App allocates nothing
// for it, and it must not be retained across steps.
//
// Send, Recv and Compute refill and return the rank's one op of their
// kind. The slot rule: an op, and the prev it comes back as, stays valid
// until the application asks for its next op of the same kind. An
// application reads prev before it builds that op, and keeps what it
// needs for longer in its own fields: the bytes RecvMsg.Data refers to
// outlive the slot, only the op's fields are reused.
type Ctx struct {
	RT  *Runtime
	api *guest.API
}

// slots is a rank's runtime-only state, kept in its process's scratch
// slot: one op per kind for the Ctx constructors, and the interned
// headers. The image never carries it. An op in flight is encoded by
// value through Driver.Cur, and a restored rank starts with fresh slots.
type slots struct {
	send    SendMsg
	recv    RecvMsg
	compute ComputeOp
	headers headerTable
}

// rankSlots returns the slots of the rank api belongs to, creating them
// on the rank's first use (and on its first use after a restore).
//
//dvc:hotpath
func rankSlots(api *guest.API) *slots {
	p := api.Scratch()
	if s, ok := (*p).(*slots); ok {
		return s
	}
	s := new(slots) //lint:allow noalloc once per process lifetime, then found above
	*p = s
	return s
}

// Send returns a send of data to rank to, tagged tag, in the rank's send
// slot (see Ctx). The application gives up the right to mutate data (the
// payload immutability contract).
//
//dvc:hotpath
func (c Ctx) Send(to, tag int, data []byte) *SendMsg {
	op := &rankSlots(c.api).send
	*op = SendMsg{To: to, Tag: tag, Data: data}
	return op
}

// Recv returns a receive of one message tagged tag from rank from, in the
// rank's receive slot (see Ctx).
//
//dvc:hotpath
func (c Ctx) Recv(from, tag int) *RecvMsg {
	op := &rankSlots(c.api).recv
	*op = RecvMsg{From: from, Tag: tag}
	return op
}

// Compute returns a computation of duration d, in the rank's compute slot
// (see Ctx).
//
//dvc:hotpath
func (c Ctx) Compute(d sim.Time) *ComputeOp {
	op := &rankSlots(c.api).compute
	*op = ComputeOp{Duration: d}
	return op
}

// WallClock returns the host wall-clock reading (jumps across VM
// save/restore — what HPL's timers see).
func (c Ctx) WallClock() sim.Time { return c.api.WallClock() }

// Jiffies returns guest-monotonic time.
func (c Ctx) Jiffies() sim.Time { return c.api.Jiffies() }

// Log writes to the guest kernel log.
func (c Ctx) Log(format string, args ...any) { c.api.Log(format, args...) }

// App is an MPI application: each step returns the next MPI operation
// (nil = finished). The completed previous operation is passed back so
// the app can read its outputs (e.g. RecvMsg.Data).
//
// Implementations must be pure data and imgcodec-registered: they are
// part of the VM image.
type App interface {
	Step(c Ctx, prev Op) Op
}

// Op is a resumable MPI operation. step is called with the result of the
// previously issued guest operation; it returns the next guest operation
// to run, or done=true when the MPI operation has completed.
type Op interface {
	step(rt *Runtime, api *guest.API, res guest.Result) (gop guest.Op, done bool)
}

// Driver adapts an App into a guest.Program: it first runs the connection
// mesh setup, then steps the application, translating MPI operations into
// guest operations.
type Driver struct {
	R    *Runtime
	App  App
	Cur  Op
	Last Op
}

// NewDriver builds the guest program for rank me of a world with the
// given rank addresses.
func NewDriver(me int, addrs []netsim.Addr, basePort uint16, app App) *Driver {
	size := len(addrs)
	fds := make([]int, size)
	for i := range fds {
		fds[i] = -1
	}
	return &Driver{
		R: &Runtime{
			Me:       me,
			Size:     size,
			Addrs:    append([]netsim.Addr(nil), addrs...),
			BasePort: basePort,
			FDs:      fds,
		},
		App: app,
	}
}

// Next implements guest.Program.
func (d *Driver) Next(api *guest.API, res guest.Result) guest.Op {
	for {
		if d.Cur == nil {
			if !d.R.Ready {
				d.Cur = &initOp{}
			} else {
				d.Cur = d.App.Step(Ctx{RT: d.R, api: api}, d.Last)
				d.Last = nil
				if d.Cur == nil {
					api.Exit(0)
					return nil
				}
			}
			res = guest.Result{}
		}
		gop, done := d.Cur.step(d.R, api, res)
		if d.R.Failed != "" {
			api.Log("mpi: rank %d failed: %s", d.R.Me, d.R.Failed)
			api.Exit(1)
			return nil
		}
		if gop != nil {
			return gop
		}
		if !done {
			// The op is waiting on nothing — that is a deadlock bug.
			panic(fmt.Sprintf("mpi: op %T neither progressed nor completed", d.Cur))
		}
		d.Last = d.Cur
		d.Cur = nil
		res = guest.Result{}
	}
}

// CheckImage implements guest.ImageChecker: it rejects a decoded driver
// whose rank indexes would send step out of range of its world, where it
// indexes Runtime.FDs and Runtime.Addrs unchecked.
func (d *Driver) CheckImage() error {
	rt := d.R
	if rt == nil {
		return fmt.Errorf("mpi: driver has no runtime")
	}
	if len(rt.FDs) != rt.Size || len(rt.Addrs) != rt.Size {
		return fmt.Errorf("mpi: world of %d ranks with %d fds and %d addresses", rt.Size, len(rt.FDs), len(rt.Addrs))
	}
	if err := rt.checkRank("rank", rt.Me); err != nil {
		return err
	}
	return checkOp(rt, d.Cur)
}

// checkRank rejects a rank index outside the world.
func (rt *Runtime) checkRank(what string, r int) error {
	if r < 0 || r >= rt.Size {
		return fmt.Errorf("mpi: %s %d outside a world of %d ranks", what, r, rt.Size)
	}
	return nil
}

// checkOp rejects a decoded op, or a collective's sub-op, that is a nil
// pointer or names a peer outside the world.
func checkOp(rt *Runtime, op Op) error {
	if v := reflect.ValueOf(op); v.Kind() == reflect.Pointer && v.IsNil() {
		return fmt.Errorf("mpi: nil %T op", op)
	}
	switch op := op.(type) {
	case *SendMsg:
		return rt.checkRank("send to", op.To)
	case *RecvMsg:
		return rt.checkRank("receive from", op.From)
	case *Barrier:
		return checkOp(rt, op.Sub)
	case *Bcast:
		if err := rt.checkRank("broadcast root", op.Root); err != nil {
			return err
		}
		return checkOp(rt, op.Sub)
	case *Reduce:
		if err := rt.checkRank("reduce root", op.Root); err != nil {
			return err
		}
		return checkOp(rt, op.Sub)
	case *Allreduce:
		return checkOp(rt, op.Sub)
	case *Alltoall:
		return checkOp(rt, op.Sub)
	}
	return nil
}

// Launch spawns one Driver per guest OS, rank i on oses[i], all sharing
// one world. makeApp builds each rank's application. It returns the
// spawned PIDs, index-aligned with oses.
func Launch(oses []*guest.OS, basePort uint16, makeApp func(rank int) App) []guest.PID {
	addrs := make([]netsim.Addr, len(oses))
	for i, o := range oses {
		addrs[i] = o.Addr()
	}
	pids := make([]guest.PID, len(oses))
	for i, o := range oses {
		pids[i] = o.Spawn(NewDriver(i, addrs, basePort, makeApp(i)))
	}
	return pids
}

// initOp builds the full connection mesh: rank i listens on BasePort+i,
// dials every lower rank (sending an 8-byte hello with its rank), and
// accepts a connection + hello from every higher rank.
type initOp struct {
	PC       int
	J        int // dial index
	AcceptsN int // accepted so far
	TmpFD    int
}

const helloSize = 8

func (op *initOp) step(rt *Runtime, api *guest.API, res guest.Result) (guest.Op, bool) {
	if res.Err != nil {
		rt.Fail("init: %v", res.Err)
		return nil, true
	}
	for {
		switch op.PC {
		case 0: // listen for higher ranks
			api.Listen(rt.Port(rt.Me))
			op.PC, op.J = 1, 0
		case 1: // dial lower ranks
			if op.J >= rt.Me {
				op.PC = 4
				continue
			}
			op.PC = 2
			return guest.Connect(rt.Addrs[op.J], rt.Port(op.J)), false
		case 2: // connected: send hello
			op.TmpFD = res.FD
			hello := make([]byte, helloSize)
			binary.LittleEndian.PutUint64(hello, uint64(rt.Me))
			op.PC = 3
			return guest.Send(op.TmpFD, hello), false
		case 3: // hello sent
			rt.FDs[op.J] = op.TmpFD
			op.J++
			op.PC = 1
		case 4: // accept higher ranks
			if op.AcceptsN >= rt.Size-1-rt.Me {
				rt.Ready = true
				return nil, true
			}
			op.PC = 5
			return guest.Accept(rt.Port(rt.Me)), false
		case 5: // accepted: read hello
			op.TmpFD = res.FD
			op.PC = 6
			return api.Recv(op.TmpFD, helloSize), false
		case 6: // hello received
			if len(res.Data) != helloSize {
				rt.Fail("init: bad hello")
				return nil, true
			}
			peer := int(binary.LittleEndian.Uint64(res.Data))
			if peer < 0 || peer >= rt.Size || rt.FDs[peer] != -1 {
				rt.Fail("init: invalid hello from rank %d", peer)
				return nil, true
			}
			rt.FDs[peer] = op.TmpFD
			op.AcceptsN++
			op.PC = 4
		}
	}
}
