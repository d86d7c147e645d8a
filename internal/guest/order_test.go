package guest

import (
	"reflect"
	"testing"

	"dvc/internal/sim"
)

// The process table's orderings are replay-relevant: the scheduler
// drives processes, Snapshot writes them, and Freeze/Thaw stop and re-arm
// their timers in PID order, and kernel sequence numbers (the event-queue
// tiebreak) follow that order. These tests pin the orderings.

func pidsOf(procs []*Process) []PID {
	out := make([]PID, len(procs))
	for i, p := range procs {
		out[i] = p.PID()
	}
	return out
}

func TestProcsInPIDOrderAfterSpawnAndRestore(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 5; i++ {
		r.osA.Spawn(&computeProg{Dur: sim.Time(i+1) * 10 * sim.Millisecond, Rounds: 3})
	}
	want := []PID{1, 2, 3, 4, 5}
	if got := pidsOf(r.osA.Procs()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Spawn: Procs() = %v, want %v", got, want)
	}
	// Let the shortest programs exit, so the table mixes live and exited
	// processes.
	r.k.RunFor(70 * sim.Millisecond)
	r.freeze(r.osA, r.pA)
	img, err := EncodeImagePayload(r.osA.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeImagePayload(img)
	if err != nil {
		t.Fatal(err)
	}
	r.pA.Detach()
	o := Restore(r.k, r.fabric, snap, func() sim.Time { return r.k.Now() }, 1.0)
	if got := pidsOf(o.Procs()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Restore: Procs() = %v, want %v", got, want)
	}
	for _, pid := range want {
		if p, ok := o.Proc(pid); !ok || p.PID() != pid {
			t.Fatalf("Proc(%d) = %v, %v after Restore", pid, p, ok)
		}
	}
	if _, ok := o.Proc(6); ok {
		t.Fatal("Proc found a PID that was never spawned")
	}
	if pid := o.Spawn(&computeProg{Dur: sim.Millisecond, Rounds: 1}); pid != 6 {
		t.Fatalf("first Spawn after Restore got PID %d, want 6", pid)
	}
	if got := pidsOf(o.Procs()); !reflect.DeepEqual(got, append(want, 6)) {
		t.Fatalf("Spawn after Restore: Procs() = %v", got)
	}
}

// gateOp blocks until *open is set.
type gateOp struct{ open *bool }

func (op *gateOp) start(*OS, *Process)               {}
func (op *gateOp) poll(*OS, *Process) (Result, bool) { return Result{}, *op.open }

// tracedProg appends its name to a shared trace on every Next call. Its
// first step runs first (if set); it then waits on gate (if set) and
// exits.
type tracedProg struct {
	name  string
	trace *[]string
	first func()
	gate  *bool
	step  int
}

func (p *tracedProg) Next(api *API, res Result) Op {
	*p.trace = append(*p.trace, p.name)
	p.step++
	if p.step == 1 {
		if p.first != nil {
			p.first()
		}
		if p.gate != nil {
			return &gateOp{open: p.gate}
		}
	}
	return nil
}

// TestSpawnMidPassDrivenNextPass pins the pump's pass boundary: the set of
// processes a pass drives is fixed when the pass starts. A waits on a
// gate; B, driven after A in the same pass, opens the gate and spawns C.
// The next pass resumes A before it first drives C, the newest PID. A
// scheduler that drove C in B's pass would log C before A's resume.
func TestSpawnMidPassDrivenNextPass(t *testing.T) {
	r := newRig(t)
	var trace []string
	open := false
	r.osA.Spawn(&tracedProg{name: "A", trace: &trace, gate: &open})
	r.osA.Spawn(&tracedProg{name: "B", trace: &trace, first: func() {
		open = true
		r.osA.Spawn(&tracedProg{name: "C", trace: &trace})
	}})
	r.k.RunFor(sim.Millisecond)
	want := []string{"A", "B", "A", "C"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("Next order %v, want %v", trace, want)
	}
	if !r.osA.AllExited() {
		t.Fatal("not every process exited")
	}
}

// timerFireOrder steps the kernel until every process with an armed timer
// has seen it fire, returning the PIDs in firing order.
func timerFireOrder(t *testing.T, k *sim.Kernel, o *OS) []PID {
	t.Helper()
	armed := 0
	for _, p := range o.Procs() {
		if p.timer.Pending() {
			armed++
		}
	}
	var order []PID
	seen := map[PID]bool{}
	for len(order) < armed {
		if !k.Step() {
			t.Fatalf("queue drained after %d of %d timers fired", len(order), armed)
		}
		for _, p := range o.Procs() {
			if p.timerFired && !seen[p.pid] {
				seen[p.pid] = true
				order = append(order, p.pid)
			}
		}
	}
	return order
}

// TestThawRearmsTimersInPIDOrder: eight processes compute for the same
// span, so at a freeze they hold equal remainders. Thaw re-arms them all
// for the same instant, and the firing order is then the order Thaw armed
// them in, which must be PID order — on a frozen OS and on a restored one,
// whose timers are created by the re-arm.
func TestThawRearmsTimersInPIDOrder(t *testing.T) {
	r := newRig(t)
	const n = 8
	want := make([]PID, n)
	for i := range want {
		want[i] = r.osA.Spawn(&computeProg{Dur: 100 * sim.Millisecond, Rounds: 2})
	}
	r.k.RunFor(30 * sim.Millisecond)
	r.osA.Freeze()
	for _, p := range r.osA.Procs() {
		if p.timer.Pending() || p.timerLeft != 70*sim.Millisecond {
			t.Fatalf("pid %d after Freeze: pending=%v left=%v", p.pid, p.timer.Pending(), p.timerLeft)
		}
	}
	r.k.RunFor(sim.Second)
	r.osA.Thaw()
	if got := timerFireOrder(t, r.k, r.osA); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Thaw timers fired in order %v, want %v", got, want)
	}

	// Into the second compute round, then through an image and Restore.
	r.k.RunFor(50 * sim.Millisecond)
	r.freeze(r.osA, r.pA)
	img, err := EncodeImagePayload(r.osA.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeImagePayload(img)
	if err != nil {
		t.Fatal(err)
	}
	r.pA.Detach()
	o := Restore(r.k, r.fabric, snap, func() sim.Time { return r.k.Now() }, 1.0)
	r.fabric.Attach("ga", "c", o.Stack().Deliver)
	o.Thaw()
	if got := timerFireOrder(t, r.k, o); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Restore+Thaw timers fired in order %v, want %v", got, want)
	}
}
