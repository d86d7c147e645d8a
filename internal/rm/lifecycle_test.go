package rm

import (
	"runtime"
	"testing"
	"weak"

	"dvc/internal/guest"
	"dvc/internal/sim"
)

// TestPhysicalRetiredOSesAreCollected: every native OS a physical-backend
// attempt boots, completed or failed by a node crash, is unreachable once
// the attempt is torn down. Neither the kernel (its timers) nor the node
// (its crash hook) may keep it.
func TestPhysicalRetiredOSesAreCollected(t *testing.T) {
	b := newBed(t, 13, 6, DefaultConfig(Physical))
	b.rm.Submit(job("j0", 2, 3*sim.Minute, 0))
	b.rm.Submit(job("j1", 3, 2*sim.Minute, 0))
	b.rm.Submit(job("j2", 2, 2*sim.Minute, 4*sim.Minute))
	oses := make(map[weak.Pointer[guest.OS]]bool)
	crashed := false
	for !b.rm.AllDone() {
		if b.k.Now() > 2*sim.Hour {
			t.Fatalf("jobs not done: %d queued, %d running", len(b.rm.queue), len(b.rm.running))
		}
		b.k.RunFor(sim.Second)
		for _, j := range b.rm.running {
			for _, o := range j.oses {
				oses[weak.Make(o)] = true
			}
		}
		// Crash one of j0's nodes mid-run: that attempt fails and the
		// job reruns from scratch on fresh OSes.
		if j := b.rm.Jobs()[0]; !crashed && b.k.Now() >= sim.Minute && j.State == Running {
			j.nodes[0].Fail()
			crashed = true
		}
	}
	if !crashed || b.rm.Jobs()[0].Attempt < 2 {
		t.Fatalf("crash did not fail an attempt (crashed %v, attempt %d)", crashed, b.rm.Jobs()[0].Attempt)
	}
	if s := b.rm.Stats(); s.Completed != 3 {
		t.Fatalf("stats %+v", s)
	}
	// j0's two attempts, j1 and j2.
	if len(oses) != 2+2+3+2 {
		t.Fatalf("recorded %d native OSes, want 9", len(oses))
	}
	runtime.GC()
	runtime.GC()
	live := 0
	for wp := range oses {
		if wp.Value() != nil {
			live++
		}
	}
	// The bed must outlive the count, or the whole simulation is garbage
	// and the gate proves nothing.
	runtime.KeepAlive(b)
	if live != 0 {
		t.Fatalf("%d of %d torn-down native OSes still reachable after GC", live, len(oses))
	}
}

// TestDVCRetiredGuestsAreCollected: every guest OS a DVC-backend job
// boots is unreachable once its job is done: the guests of a completed
// virtual cluster, and those a node crash retires when the job recovers
// from its checkpoint onto fresh domains. Neither the job record nor its
// periodic checkpoint timer may keep them.
func TestDVCRetiredGuestsAreCollected(t *testing.T) {
	b := newBed(t, 13, 6, DefaultConfig(DVC))
	b.rm.Submit(job("j0", 2, 5*sim.Minute, 0))
	b.rm.Submit(job("j1", 3, 3*sim.Minute, 0))
	oses := make(map[weak.Pointer[guest.OS]]bool)
	crashed := false
	for !b.rm.AllDone() {
		if b.k.Now() > 2*sim.Hour {
			t.Fatalf("jobs not done: %d queued, %d running", len(b.rm.queue), len(b.rm.running))
		}
		b.k.RunFor(sim.Second)
		for _, j := range b.rm.running {
			if j.vc == nil {
				continue
			}
			for _, o := range j.vc.OSes() {
				if o != nil { // a domain still booting has no guest yet
					oses[weak.Make(o)] = true
				}
			}
		}
		// Crash one of j0's nodes once it has a checkpoint: the job
		// recovers onto fresh domains and its old guests retire.
		if j := b.rm.Jobs()[0]; !crashed && j.State == Running && j.lastGoodGen >= 0 {
			j.nodes[0].Fail()
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("j0 never checkpointed, so the crash never happened")
	}
	if s := b.rm.Stats(); s.Completed != 2 {
		t.Fatalf("stats %+v", s)
	}
	// j0 before and after its recovery, and j1.
	if len(oses) != 2+2+3 {
		t.Fatalf("recorded %d guest OSes, want 7", len(oses))
	}
	runtime.GC()
	runtime.GC()
	live := 0
	for wp := range oses {
		if wp.Value() != nil {
			live++
		}
	}
	// The bed must outlive the count, or the whole simulation is garbage
	// and the gate proves nothing.
	runtime.KeepAlive(b)
	if live != 0 {
		t.Fatalf("%d of %d retired guest OSes still reachable after GC", live, len(oses))
	}
}
