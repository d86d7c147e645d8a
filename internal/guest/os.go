// Package guest models the operating system inside a virtual machine (or
// on a bare physical node): processes, sockets, timers, a kernel log and a
// software watchdog.
//
// Because Go cannot serialise goroutine stacks, guest processes are
// written as explicit resumable state machines (Program): each step
// returns the next blocking operation (compute, send, recv, ...). All
// process state lives in serialisable fields, which is what makes a
// whole-VM checkpoint possible — precisely the property the paper gets
// from Xen's save/restore.
//
// Two clocks are visible to programs, and the difference between them is
// one of the paper's findings (§3.2):
//
//   - WallClock: the host's wall clock. Xen does NOT virtualise it away
//     across save/restore, so it jumps over the suspended interval. HPL
//     measures with it and therefore "reported a greatly increased
//     execution time".
//   - Jiffies: guest-monotonic time, frozen while the VM is suspended.
package guest

import (
	"fmt"
	"sort"

	"dvc/internal/netsim"
	"dvc/internal/payload"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

// PID identifies a guest process.
type PID int

// Result carries the outcome of a completed operation into the program's
// next step.
type Result struct {
	Data []byte // Recv payload
	FD   int    // Connect/Accept file descriptor
	N    int    // generic count
	Err  error  // operation failed (e.g. connection reset)
}

// Program is a guest application written as a resumable state machine.
// Next is called with the previous operation's result and returns the
// next operation, or nil when the program is done (exit status via
// API.Exit or implicit success).
//
// Implementations must be pure data (imgcodec-encodable): every field
// is part of the VM image.
type Program interface {
	Next(api *API, res Result) Op
}

// API is the syscall surface available to a program while it decides its
// next operation. It is only valid during the Next call.
type API struct {
	os   *OS
	proc *Process
}

// WallClock returns the host wall-clock reading (jumps across
// save/restore).
func (a *API) WallClock() sim.Time { return a.os.wallClock() }

// Jiffies returns guest-monotonic time (frozen while suspended).
func (a *API) Jiffies() sim.Time { return a.os.Jiffies() }

// Log appends a message to the guest kernel log.
func (a *API) Log(format string, args ...any) {
	a.os.Logf(format, args...)
}

// Exit records the process exit status; return nil from Next afterwards.
func (a *API) Exit(code int) { a.proc.exitCode = code }

// Recv returns an op that reads exactly n bytes from fd. The op lives
// in the process's own slot, so it allocates nothing; it stays valid
// until the program's next Next call.
//
//dvc:hotpath
func (a *API) Recv(fd, n int) *RecvOp {
	op := &a.proc.recvOp
	*op = RecvOp{FD: fd, N: n}
	return op
}

// SendPayload returns an op that writes a chunked rope to fd, in the
// process's own slot (see Recv). It is the entry point for layers (mpi
// framing) that assemble messages from shared chunks without
// materialising them.
//
//dvc:hotpath
func (a *API) SendPayload(fd int, data payload.Bytes) *SendOp {
	op := &a.proc.sendOp
	*op = SendOp{FD: fd, Data: data, Len: data.Len()}
	return op
}

// Compute returns an op that computes for d, in the process's own slot
// (see Recv).
//
//dvc:hotpath
func (a *API) Compute(d sim.Time) *ComputeOp {
	op := &a.proc.computeOp
	*op = ComputeOp{Duration: d}
	return op
}

// Scratch returns the process's runtime-only scratch slot, where a layer
// above guest (mpi) keeps per-process state that must not be part of the
// image: its own op slots, say. The slot is never in ProcSnapshot, so a
// restored process starts with it nil, and whatever is kept there must
// be rebuildable from nothing.
//
//dvc:hotpath
func (a *API) Scratch() *any { return &a.proc.scratch }

// Listen opens a listening port (idempotent for the same port).
func (a *API) Listen(port uint16) {
	for _, p := range a.os.listens {
		if p == port {
			return
		}
	}
	a.os.Listen(port)
}

// Process is one guest process.
type Process struct {
	pid      PID
	prog     Program
	api      API // handed to every Next call; bound once at creation
	cur      Op
	last     Result
	exited   bool
	exitCode int

	// Op slots for the API's op methods. A process has at most one
	// outstanding syscall, and Next is only called once cur has
	// completed, so each slot is free to refill whenever the program
	// asks for its next op. The image encodes cur by value, so a slot
	// is never part of it.
	recvOp    RecvOp
	sendOp    SendOp
	computeOp ComputeOp

	// scratch is API.Scratch's slot: runtime-only, like the op slots.
	scratch any

	// Timer support for Compute/Sleep ops; frozen with the VM. The timer
	// is created lazily on first arm and rearmed in place thereafter
	// (sim.Timer), so per-op scheduling allocates nothing in steady state.
	timer      *sim.Timer
	timerFired bool
	timerLeft  sim.Time // valid while frozen; -1 = none

	// dial is the connection the current ConnectOp opened, and dialErr
	// the error that kept it from opening. Both are runtime-only: the
	// image carries the op's key, and a restored process's ConnectOp
	// resolves it once, on its first poll.
	dial    *tcp.Conn
	dialErr error
}

// Exited reports whether the process has finished.
func (p *Process) Exited() bool { return p.exited }

// ExitCode returns the exit status (valid after Exited).
func (p *Process) ExitCode() int { return p.exitCode }

// Program returns the process's program (for result inspection after exit).
func (p *Process) Program() Program { return p.prog }

// LogEntry is one guest kernel log line.
type LogEntry struct {
	Wall    sim.Time
	Jiffies sim.Time
	Msg     string
}

// WatchdogConfig tunes the guest software watchdog daemon.
type WatchdogConfig struct {
	// Interval between watchdog checks. Zero disables the watchdog.
	Interval sim.Time
	// Tolerance over the interval before a stall is reported.
	Tolerance sim.Time
}

// DefaultWatchdog matches the paper's setup: a software watchdog that
// fires a report after every VM save/restore because wall time jumped.
func DefaultWatchdog() WatchdogConfig {
	return WatchdogConfig{Interval: 10 * sim.Second, Tolerance: 5 * sim.Second}
}

// OS is a guest operating system instance.
type OS struct {
	kernel    *sim.Kernel
	stack     *tcp.Stack
	wallClock func() sim.Time
	cpuFactor float64 // >1 = slower than native (para-virt overhead)

	// procs holds every process in PID order. PIDs are monotonic, so
	// Spawn appends; Restore rebuilds it from the snapshot, which is
	// written in PID order. The scheduler, Freeze/Thaw and Snapshot walk
	// it directly: their orderings are replay-relevant.
	procs   []*Process
	nextPID PID
	fds     []fdBinding              // descriptor firstFD+i is fds[i]
	accepts map[uint16][]tcp.ConnKey // accepted, not yet Accept()ed
	listens []uint16

	log []LogEntry

	frozen       bool
	jiffiesAccum sim.Time
	runningSince sim.Time

	wd         WatchdogConfig
	wdLastWall sim.Time
	wdTimer    *sim.Timer
	wdLeft     sim.Time
	wdTimeouts int

	// pumpTimer drives scheduler passes: schedulePump rearms it at the
	// current instant instead of allocating a fresh zero-delay event (and
	// a method-value closure) per pass — the single hottest schedule site
	// in the simulator.
	pumpTimer     *sim.Timer
	pumpScheduled bool

	// exitNotify, when set, is invoked every time a process exits. Drivers
	// (experiment harnesses, the facade) use it to halt the kernel and
	// re-check completion predicates instead of polling on a fixed period.
	// Runtime-only: it is not part of the VM image and does not survive
	// save/restore.
	exitNotify func()
}

// New creates a running guest OS on top of a TCP stack. wallClock supplies
// host wall-clock readings (the node's clock.Clock.Read); cpuFactor scales
// compute durations (1.0 = native speed).
func New(k *sim.Kernel, stack *tcp.Stack, wallClock func() sim.Time, cpuFactor float64, wd WatchdogConfig) *OS {
	if cpuFactor <= 0 {
		cpuFactor = 1
	}
	o := &OS{
		kernel:       k,
		stack:        stack,
		wallClock:    wallClock,
		cpuFactor:    cpuFactor,
		nextPID:      1,
		accepts:      make(map[uint16][]tcp.ConnKey),
		runningSince: k.Now(),
		wd:           wd,
		wdLeft:       -1,
	}
	if wd.Interval > 0 {
		o.wdLastWall = wallClock()
		o.armWatchdog(wd.Interval)
	}
	return o
}

// armWatchdog (re)arms the watchdog tick, creating its timer on first use
// (restored OSes arm lazily from Thaw).
func (o *OS) armWatchdog(d sim.Time) {
	if o.wdTimer == nil {
		o.wdTimer = sim.NewTimer(o.kernel, o.watchdogTick)
	}
	o.wdTimer.Reset(d)
}

// Stack returns the guest's TCP stack.
func (o *OS) Stack() *tcp.Stack { return o.stack }

// Addr returns the guest's network address.
func (o *OS) Addr() netsim.Addr { return o.stack.Addr() }

// Jiffies returns guest-monotonic time: it does not advance while frozen.
func (o *OS) Jiffies() sim.Time {
	if o.frozen {
		return o.jiffiesAccum
	}
	return o.jiffiesAccum + (o.kernel.Now() - o.runningSince)
}

// Logf appends to the kernel log.
func (o *OS) Logf(format string, args ...any) {
	o.log = append(o.log, LogEntry{
		Wall:    o.wallClock(),
		Jiffies: o.Jiffies(),
		Msg:     fmt.Sprintf(format, args...),
	})
}

// KernelLog returns the guest kernel log.
func (o *OS) KernelLog() []LogEntry { return o.log }

// WatchdogTimeouts reports how many watchdog stall reports have been
// logged (one per save/restore cycle, per the paper).
func (o *OS) WatchdogTimeouts() int { return o.wdTimeouts }

// Spawn starts a program as a new process and returns its PID.
func (o *OS) Spawn(prog Program) PID {
	pid := o.nextPID
	o.nextPID++
	o.addProc(&Process{pid: pid, prog: prog, timerLeft: -1})
	o.schedulePump()
	return pid
}

// addProc appends p, whose PID must exceed every existing one, and binds
// its syscall surface.
func (o *OS) addProc(p *Process) {
	p.api = API{os: o, proc: p}
	o.procs = append(o.procs, p)
}

// Proc returns the process with the given PID.
func (o *OS) Proc(pid PID) (*Process, bool) {
	i := sort.Search(len(o.procs), func(i int) bool { return o.procs[i].pid >= pid })
	if i < len(o.procs) && o.procs[i].pid == pid {
		return o.procs[i], true
	}
	return nil, false
}

// Procs returns all processes in PID order, without copying or sorting:
// the slice is a view of the OS's own process table. Callers must not
// modify it; it does not grow with later Spawns.
func (o *OS) Procs() []*Process { return o.procs[:len(o.procs):len(o.procs)] }

// SetExitNotify installs fn to be called whenever a process exits (nil
// clears it). This is the event-driven alternative to polling every
// process's Exited on a timer: a driver sets fn = kernel.Halt, runs the
// kernel, and re-checks its completion predicate only when something
// actually exited. The hook fires from inside the scheduler pump, so fn
// must not re-enter the OS; halting the kernel is the intended use.
func (o *OS) SetExitNotify(fn func()) { o.exitNotify = fn }

// Listen opens a listening port; incoming connections queue for AcceptOp.
func (o *OS) Listen(port uint16) {
	o.listens = append(o.listens, port)
	o.stack.Listen(port, o.acceptOn(port))
}

// acceptOn returns port's accept callback, which Listen and Restore
// install: it queues the connection for AcceptOp, hooks the
// connection's wake-up to the scheduler and wakes the OS.
func (o *OS) acceptOn(port uint16) func(*tcp.Conn) {
	return func(c *tcp.Conn) {
		o.accepts[port] = append(o.accepts[port], c.Key())
		c.Notify = o.schedulePump
		o.schedulePump()
	}
}

// firstFD is the first socket descriptor; 0–2 are the standard streams.
const firstFD = 3

// fdBinding is one descriptor, an entry of the OS's fd slice: the
// connection key, which the image carries, and the connection it resolves
// to on this OS's stack, which is runtime-only and rebuilt by Restore.
// Descriptors are dense, because newFD allocates them in order and none
// is ever closed, so the table is a slice indexed by fd-firstFD. A stack
// never rebinds a key (see tcp.Stack.Lookup), so the cached pointer stays
// what a fresh lookup would return.
type fdBinding struct {
	key  tcp.ConnKey
	conn *tcp.Conn
}

// conn resolves an fd to its connection.
//
//dvc:hotpath
func (o *OS) conn(fd int) (*tcp.Conn, bool) {
	i := fd - firstFD
	if i < 0 || i >= len(o.fds) || o.fds[i].conn == nil {
		return nil, false
	}
	return o.fds[i].conn, true
}

// newFD binds key, whose connection on this OS's stack is c (nil when it
// has none), to the next descriptor.
func (o *OS) newFD(key tcp.ConnKey, c *tcp.Conn) int {
	o.fds = append(o.fds, fdBinding{key: key, conn: c})
	return firstFD + len(o.fds) - 1
}

// schedulePump queues a scheduler pass. Pumping from a fresh event (rather
// than recursively) keeps process stepping non-reentrant.
func (o *OS) schedulePump() {
	if o.pumpScheduled || o.frozen {
		return
	}
	o.pumpScheduled = true
	if o.pumpTimer == nil {
		o.pumpTimer = sim.NewTimer(o.kernel, o.pump)
	}
	o.pumpTimer.Reset(0)
}

// pump drives every process until no more progress is possible.
func (o *OS) pump() {
	o.pumpScheduled = false
	if o.frozen {
		return
	}
	for {
		progress := false
		// n is fixed per pass: a process spawned mid-pass is first
		// driven on the next pass.
		n := len(o.procs)
		for _, p := range o.procs[:n] {
			if o.drive(p) {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// drive advances one process as far as it can go; reports whether any
// step completed.
func (o *OS) drive(p *Process) bool {
	if p.exited || o.frozen {
		return false
	}
	advanced := false
	for {
		if p.cur != nil {
			res, done := p.cur.poll(o, p)
			if !done {
				return advanced
			}
			p.cur = nil
			p.last = res
			p.timerFired = false
			advanced = true
		}
		op := p.prog.Next(&p.api, p.last)
		p.last = Result{}
		if op == nil {
			p.exited = true
			if o.exitNotify != nil {
				o.exitNotify()
			}
			return true
		}
		p.cur = op
		op.start(o, p)
	}
}

// armTimer sets the process's freezable timer. The callback is bound once
// per process; rearms reuse the same kernel slot.
func (p *Process) armTimer(o *OS, d sim.Time) {
	if p.timer == nil {
		p.timer = sim.NewTimer(o.kernel, func() {
			p.timerFired = true
			o.schedulePump()
		})
	}
	p.timerFired = false
	p.timer.Reset(d)
}

// Freeze suspends the OS: process timers and the watchdog stop (recording
// remainders), jiffies stop advancing, and the TCP stack freezes.
func (o *OS) Freeze() {
	if o.frozen {
		return
	}
	o.jiffiesAccum += o.kernel.Now() - o.runningSince
	o.frozen = true
	// PID order: cancelling timers touches kernel state, and replay
	// requires the same touch sequence every run.
	for _, p := range o.procs {
		if p.timer.Pending() {
			p.timerLeft = p.timer.When() - o.kernel.Now()
			p.timer.Stop()
		} else {
			p.timerLeft = -1
		}
	}
	if o.wdTimer.Pending() {
		o.wdLeft = o.wdTimer.When() - o.kernel.Now()
		o.wdTimer.Stop()
	} else {
		o.wdLeft = -1
	}
	o.stack.Freeze()
}

// Release retires the OS for good. It freezes the OS if it is still
// running, then frees every kernel timer the OS owns: each process timer
// in PID order, then the watchdog and the pump, and last its stack's
// retransmit timers (tcp.Stack.Release). Each of those timers' callbacks
// captures the OS, so until they are freed the kernel's slab keeps a
// retired guest and its TCP stack reachable for the rest of the run (see
// sim.Timer.Free). Freeing consumes no sequence number, so Release does
// not change event order. Release is idempotent; a released OS must not
// be thawed.
func (o *OS) Release() {
	o.Freeze()
	for _, p := range o.procs {
		p.timer.Free()
		p.timer = nil
	}
	o.wdTimer.Free()
	o.wdTimer = nil
	o.pumpTimer.Free()
	o.pumpTimer = nil
	o.stack.Release()
}

// Thaw resumes a frozen OS, re-arming timers from remainders.
func (o *OS) Thaw() {
	if !o.frozen {
		return
	}
	o.frozen = false
	o.runningSince = o.kernel.Now()
	// PID order: armTimer schedules kernel events, whose sequence
	// numbers (the event-queue tiebreak) must be reproducible.
	for _, p := range o.procs {
		if p.timerLeft >= 0 {
			left := p.timerLeft
			p.timerLeft = -1
			p.armTimer(o, left)
		}
	}
	if o.wdLeft >= 0 {
		o.armWatchdog(o.wdLeft)
		o.wdLeft = -1
	}
	o.stack.Thaw()
	o.schedulePump()
}

// watchdogTick is the guest software watchdog: if wall time has jumped
// past the check interval plus tolerance — which is exactly what a VM
// save/restore does — it logs a stall report. The report is harmless
// (the paper: "Although this did not affect the execution of the
// environment, it did cause a large number of kernel messages to
// accumulate").
func (o *OS) watchdogTick() {
	wall := o.wallClock()
	if gap := wall - o.wdLastWall; gap > o.wd.Interval+o.wd.Tolerance {
		o.wdTimeouts++
		o.Logf("watchdog: BUG: soft lockup detected, wall clock jumped %v", gap-o.wd.Interval)
	}
	o.wdLastWall = wall
	o.armWatchdog(o.wd.Interval)
}
