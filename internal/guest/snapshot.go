package guest

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"dvc/internal/imgcodec"
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
// whole-VM checkpoint. Everything in it round-trips through the image
// codec: schemaHash compiles its whole closure at init, so a field the
// codec rejects panics there, naming its path. Its closure is a root of
// STATE_MANIFEST.txt (see the imgcodec tests).
type Snapshot struct {
	Procs     []ProcSnapshot
	NextPID   PID
	FDs       map[int]tcp.ConnKey
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
	for i, e := range o.fds {
		s.FDs[firstFD+i] = e.key
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
		fds:          make([]fdBinding, 0, len(snap.FDs)),
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
	// The fds are firstFD..firstFD+len-1 (DecodeImagePayload checks it),
	// so binding them in order rebuilds the slice; each key is resolved
	// once on the restored stack.
	for fd := firstFD; fd < firstFD+len(snap.FDs); fd++ {
		key := snap.FDs[fd]
		c, _ := o.stack.Lookup(key)
		o.newFD(key, c)
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
	// Re-register listener accept callbacks and connection wake-ups.
	for _, port := range o.listens {
		o.stack.SetListenerAccept(port, o.acceptOn(port))
	}
	for _, c := range o.stack.Conns() {
		c.Notify = o.schedulePump
	}
	return o
}

// Image format. A checkpoint image is the Snapshot encoded as one
// internal/imgcodec value, followed by a 12-byte trailer: the 64-bit
// schema hash of Snapshot (little-endian), then the magic "DVC4". The
// codec writes no type descriptors and orders map entries by key, so the
// image bytes are a pure function of the guest state. The schema hash
// covers Snapshot's wire layout; a build whose layout differs rejects
// the image instead of misreading it. Interface payloads (programs, ops)
// carry their own plan hashes.
const (
	imageMagic  = "DVC4"
	trailerSize = 8 + len(imageMagic)
)

// schemaHash identifies the wire layout of Snapshot.
var schemaHash = mustSchemaHash()

func mustSchemaHash() uint64 {
	h, err := imgcodec.SchemaHash(&Snapshot{})
	if err != nil {
		panic(err)
	}
	return h
}

// exactWriter keeps a copy of the one Write imgcodec.Encode makes, in a
// slice sized exactly for it and the trailer.
type exactWriter struct{ buf []byte }

func (w *exactWriter) Write(p []byte) (int, error) {
	w.buf = append(make([]byte, 0, len(p)+trailerSize), p...)
	return len(p), nil
}

// EncodeImagePayload serialises a snapshot into the byte image that
// would be written to checkpoint storage, as a one-chunk payload rope.
// It is the functional payload of a checkpoint file; the *modelled*
// image size (all guest RAM) is larger and accounted separately by the
// vm package.
//
// The codec encodes into its pooled scratch buffer, and the image is one
// copy of that, so each capture allocates the image once. The returned
// rope owns its buffer (images are retained by the store) and is
// immutable per the payload contract.
func EncodeImagePayload(snap *Snapshot) (payload.Bytes, error) {
	var w exactWriter
	if err := imgcodec.Encode(&w, snap); err != nil {
		return payload.Bytes{}, fmt.Errorf("guest: encoding image: %w", err)
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, schemaHash)
	w.buf = append(w.buf, imageMagic...)
	return payload.Wrap(w.buf), nil
}

// DecodeImagePayload reverses EncodeImagePayload. Hostile input yields
// an error, never a panic.
func DecodeImagePayload(img payload.Bytes) (*Snapshot, error) {
	// A captured image is one chunk, which flattens without a copy; the
	// codec copies what it decodes, so the snapshot aliases nothing in img.
	flat := img.Flatten()
	n := len(flat) - trailerSize
	if n < 0 {
		return nil, fmt.Errorf("guest: image too short (%d bytes)", len(flat))
	}
	if magic := flat[n+8:]; string(magic) != imageMagic {
		return nil, fmt.Errorf("guest: bad image magic %q", magic)
	}
	if h := binary.LittleEndian.Uint64(flat[n:]); h != schemaHash {
		return nil, fmt.Errorf("guest: image schema %016x, this build reads %016x", h, schemaHash)
	}
	snap := new(Snapshot)
	if err := imgcodec.Decode(flat[:n], snap); err != nil {
		return nil, fmt.Errorf("guest: decoding image: %w", err)
	}
	// Every captured guest has a stack, and Restore rebuilds it first.
	if snap.Stack == nil {
		return nil, fmt.Errorf("guest: image has no TCP stack")
	}
	// RestoreStack appends the connections to its key-ordered table in
	// image order, which must therefore be strictly increasing key order
	// (Snapshot writes it so).
	conns := snap.Stack.Conns
	for i := 1; i < len(conns); i++ {
		if !conns[i-1].Key.Less(conns[i].Key) {
			return nil, fmt.Errorf("guest: image connection %v out of key order", conns[i].Key)
		}
	}
	// Restore rebuilds the fd table as a slice indexed by fd-firstFD, so
	// the fds must be exactly firstFD..firstFD+len(FDs)-1, as newFD
	// allocates them. A hostile fd number then cannot size the slice.
	for fd := firstFD; fd < firstFD+len(snap.FDs); fd++ {
		if _, ok := snap.FDs[fd]; !ok {
			return nil, fmt.Errorf("guest: image fds are not %d..%d", firstFD, firstFD+len(snap.FDs)-1)
		}
	}
	// Restore rebuilds the process table in image order, which must
	// therefore be PID order (Snapshot writes it so).
	for i := 1; i < len(snap.Procs); i++ {
		if snap.Procs[i].PID <= snap.Procs[i-1].PID {
			return nil, fmt.Errorf("guest: image process %d out of PID order", snap.Procs[i].PID)
		}
	}
	// A restored process resumes its op and program unchecked, so what
	// they size or index must be in range here: a RecvOp of -1 bytes
	// would panic in the first pump after Thaw.
	for i := range snap.Procs {
		ps := &snap.Procs[i]
		if err := checkOp(ps.Cur); err != nil {
			return nil, fmt.Errorf("guest: image process %d: %w", ps.PID, err)
		}
		if isNilPointer(ps.Prog) {
			return nil, fmt.Errorf("guest: image process %d: nil %T program", ps.PID, ps.Prog)
		}
		if c, ok := ps.Prog.(ImageChecker); ok {
			if err := c.CheckImage(); err != nil {
				return nil, fmt.Errorf("guest: image process %d: %w", ps.PID, err)
			}
		}
	}
	return snap, nil
}

// ImageChecker is implemented by programs whose decoded state carries
// invariants the codec cannot check, such as indexes into their own
// slices. DecodeImagePayload calls CheckImage on every process's program
// and rejects the image if it returns an error, so a hostile image fails
// at decode instead of panicking once the process runs.
type ImageChecker interface {
	CheckImage() error
}

// isNilPointer reports whether v holds a nil pointer, which the codec
// decodes from a pointer payload whose presence byte is 0.
func isNilPointer(v any) bool {
	rv := reflect.ValueOf(v)
	return rv.Kind() == reflect.Pointer && rv.IsNil()
}

// checkOp rejects an in-flight op that is a nil pointer or has a
// negative size.
func checkOp(op Op) error {
	if isNilPointer(op) {
		return fmt.Errorf("nil %T op", op)
	}
	switch op := op.(type) {
	case *RecvOp:
		if op.N < 0 {
			return fmt.Errorf("receive of %d bytes", op.N)
		}
	case *SendOp:
		if op.Len < 0 {
			return fmt.Errorf("send of %d bytes", op.Len)
		}
	}
	return nil
}
