package guest

import (
	"io"
	"sort"

	"dvc/internal/netsim"
	"dvc/internal/payload"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

// ProcSnapshot is the pure-data image of one process.
type ProcSnapshot struct {
	PID       PID
	Prog      Program // interface: concrete programs must be imgcodec-registered
	Cur       Op      // in-flight operation, if any
	Last      Result
	Exited    bool
	ExitCode  int
	TimerLeft sim.Time // remaining Compute/Sleep time; -1 = none
}

// Snapshot is the pure-data image of a whole guest OS: the payload of a
// whole-VM checkpoint. Everything in it round-trips through the image codec;
// the checkpoint-root directive puts its full field closure under
// snapshotstate's reachability check and into STATE_MANIFEST.txt.
//
//dvc:checkpoint-root
type Snapshot struct {
	Procs     []ProcSnapshot
	NextPID   PID
	FDs       map[int]tcp.ConnKey
	NextFD    int
	Accepts   map[uint16][]tcp.ConnKey
	Listens   []uint16
	Log       []LogEntry
	Jiffies   sim.Time
	WD        WatchdogConfig
	WDLeft    sim.Time
	WDTimeout int
	CPUFactor float64
	Stack     *tcp.StackSnapshot
}

// Snapshot captures the OS. The OS must be frozen first; capturing a
// running OS panics.
func (o *OS) Snapshot() *Snapshot {
	if !o.frozen {
		panic("guest: Snapshot of an OS that is not frozen")
	}
	s := &Snapshot{
		NextPID:   o.nextPID,
		FDs:       make(map[int]tcp.ConnKey, len(o.fds)),
		NextFD:    o.nextFD,
		Accepts:   make(map[uint16][]tcp.ConnKey, len(o.accepts)),
		Listens:   append([]uint16(nil), o.listens...),
		Log:       append([]LogEntry(nil), o.log...),
		Jiffies:   o.jiffiesAccum,
		WD:        o.wd,
		WDLeft:    o.wdLeft,
		WDTimeout: o.wdTimeouts,
		CPUFactor: o.cpuFactor,
		Stack:     o.stack.Snapshot(),
	}
	for fd, e := range o.fds {
		s.FDs[fd] = e.key
	}
	for port, q := range o.accepts {
		s.Accepts[port] = append([]tcp.ConnKey(nil), q...)
	}
	for _, p := range o.procs {
		s.Procs = append(s.Procs, ProcSnapshot{
			PID:       p.pid,
			Prog:      p.prog,
			Cur:       p.cur,
			Last:      p.last,
			Exited:    p.exited,
			ExitCode:  p.exitCode,
			TimerLeft: p.timerLeft,
		})
	}
	return s
}

// Restore rebuilds a frozen OS from a snapshot on the given fabric. The
// caller injects the (new) node's wall clock and CPU factor — those are
// host properties, not guest state — then calls Thaw to resume.
// snap.Procs must be in PID order, as Snapshot writes it and the image
// decoder checks.
func Restore(k *sim.Kernel, fabric *netsim.Fabric, snap *Snapshot, wallClock func() sim.Time, cpuFactor float64) *OS {
	if cpuFactor <= 0 {
		cpuFactor = snap.CPUFactor
	}
	o := &OS{
		kernel:       k,
		stack:        tcp.RestoreStack(k, fabric, snap.Stack),
		wallClock:    wallClock,
		cpuFactor:    cpuFactor,
		procs:        make([]*Process, 0, len(snap.Procs)),
		nextPID:      snap.NextPID,
		fds:          make(map[int]fdBinding, len(snap.FDs)),
		nextFD:       snap.NextFD,
		accepts:      make(map[uint16][]tcp.ConnKey, len(snap.Accepts)),
		listens:      append([]uint16(nil), snap.Listens...),
		log:          append([]LogEntry(nil), snap.Log...),
		frozen:       true,
		jiffiesAccum: snap.Jiffies,
		wd:           snap.WD,
		wdLeft:       snap.WDLeft,
		wdTimeouts:   snap.WDTimeout,
	}
	// The watchdog's last wall reference predates the save, so the first
	// post-restore tick always sees a jump — one stall report per
	// save/restore cycle, as the paper observed. Using zero (boot time)
	// is a conservative stand-in for the pre-save reading, which is a
	// host-relative quantity the image cannot meaningfully carry across
	// hosts.
	o.wdLastWall = 0
	// Sorted fds: bindFD resolves each key on the restored stack.
	fds := make([]int, 0, len(snap.FDs))
	for fd := range snap.FDs {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	for _, fd := range fds {
		o.bindFD(fd, snap.FDs[fd])
	}
	for port, q := range snap.Accepts {
		o.accepts[port] = append([]tcp.ConnKey(nil), q...)
	}
	for _, ps := range snap.Procs {
		o.addProc(&Process{
			pid:       ps.PID,
			prog:      ps.Prog,
			cur:       ps.Cur,
			last:      ps.Last,
			exited:    ps.Exited,
			exitCode:  ps.ExitCode,
			timerLeft: ps.TimerLeft,
		})
	}
	// Re-register listener accept callbacks and connection callbacks.
	for _, port := range o.listens {
		port := port
		o.stack.SetListenerAccept(port, func(c *tcp.Conn) {
			o.accepts[port] = append(o.accepts[port], c.Key())
			o.wireConn(c)
			o.schedulePump()
		})
	}
	for _, c := range o.stack.Conns() {
		o.wireConn(c)
	}
	return o
}

// EncodeImagePayload serialises a snapshot into the byte image that
// would be written to checkpoint storage, as a chunked payload rope. It
// is the functional payload of a checkpoint file; the *modelled* image
// size (all guest RAM) is larger and accounted separately by the vm
// package.
//
// The encoder streams directly into payload.Writer's fixed-size chunks,
// which replaces the old bytes.Buffer + exact-size defensive copy: the
// pre-rewrite path allocated (and memmoved) every image twice — once
// growing the scratch buffer, once copying it out — every LSC epoch for
// every VM in the set. The returned rope owns fresh chunks (images are
// retained by the store, so there is nothing to recycle) and is
// immutable per the payload contract.
func EncodeImagePayload(snap *Snapshot) (payload.Bytes, error) {
	w := payload.NewWriter(0)
	if err := EncodeImageStream(snap, w); err != nil {
		return payload.Bytes{}, err
	}
	return w.Take(), nil
}

// EncodeImageStream encodes snap through an arbitrary writer — the
// lowest-level encode entry point. The hypervisor tees the stream
// through its checksummer so the image CRC is computed on the bytes
// while they are hot in cache, instead of re-reading the whole image in
// a second pass after the encode.
//
// The stream is the sectioned format (see sections.go): independently
// encoded sections with a length trailer, so unchanged OS state
// re-encodes to byte-identical chunks. A writer that implements Seal()
// (payload.Writer) gets its chunk boundaries aligned with the section
// boundaries, which lets the decoder read a one-chunk section in place.
func EncodeImageStream(snap *Snapshot, w io.Writer) error {
	return encodeImageSections(snap, w)
}

// DecodeImagePayload reverses EncodeImagePayload, decoding one section
// at a time. Hostile input yields an error, never a panic.
func DecodeImagePayload(img payload.Bytes) (*Snapshot, error) {
	return decodeImageSections(img)
}
