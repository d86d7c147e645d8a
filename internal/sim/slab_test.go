package sim

// Tests pinning the pooled-slab event system's observable semantics:
// Timer rearm must consume exactly the same seq stream as scheduling a
// fresh event per arm, freed slots must be reused, and a churn of events
// and timers must match a model of expected firings.

import (
	"math/rand"
	"testing"
)

// TestTimerRearmMatchesReschedule asserts the Timer fast path is
// seq-for-seq identical to scheduling a fresh After per arm: the same
// workload driven both ways must produce the same firing times and the
// same final seq counter, so converting a call site cannot shift any
// other event's tiebreak.
func TestTimerRearmMatchesReschedule(t *testing.T) {
	type obs struct {
		times []Time
		seq   uint64
	}
	viaAfter := func() obs {
		k := NewKernel(9)
		var o obs
		n := 0
		var arm func(d Time)
		arm = func(d Time) {
			k.After(d, func() {
				o.times = append(o.times, k.Now())
				n++
				if n < 5 {
					arm(Time(n) * Millisecond)
				}
			})
		}
		arm(Millisecond)
		k.Run()
		o.seq = k.seq
		return o
	}
	viaTimer := func() obs {
		k := NewKernel(9)
		var o obs
		var tm *Timer
		n := 0
		tm = NewTimer(k, func() {
			o.times = append(o.times, k.Now())
			n++
			if n < 5 {
				tm.Reset(Time(n) * Millisecond)
			}
		})
		tm.Reset(Millisecond)
		k.Run()
		o.seq = k.seq
		return o
	}
	a, b := viaAfter(), viaTimer()
	if a.seq != b.seq {
		t.Fatalf("seq consumption diverged: after=%d timer=%d", a.seq, b.seq)
	}
	if len(a.times) != len(b.times) {
		t.Fatalf("firing counts diverged: %d vs %d", len(a.times), len(b.times))
	}
	for i := range a.times {
		if a.times[i] != b.times[i] {
			t.Fatalf("firing time %d diverged: %v vs %v", i, a.times[i], b.times[i])
		}
	}
}

// TestTimerStopAndRearm covers the in-place rearm state machine:
// scheduled -> idle on Stop, idle -> scheduled on Reset, earlier/later
// rearm while scheduled, and Stop consuming no seq.
func TestTimerStopAndRearm(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	tm := NewTimer(k, func() { fired++ })

	if tm.Pending() {
		t.Fatal("fresh timer should be idle")
	}
	if tm.Stop() {
		t.Fatal("Stop on idle timer should report false")
	}
	seqBefore := k.seq
	tm.Reset(10 * Millisecond)
	if k.seq != seqBefore+1 {
		t.Fatalf("Reset consumed %d seqs, want 1", k.seq-seqBefore)
	}
	if !tm.Pending() || tm.When() != 10*Millisecond {
		t.Fatalf("timer not armed: pending=%v when=%v", tm.Pending(), tm.When())
	}
	// Rearm earlier in place, then later in place.
	tm.Reset(2 * Millisecond)
	if tm.When() != 2*Millisecond {
		t.Fatalf("earlier rearm: When=%v", tm.When())
	}
	tm.Reset(20 * Millisecond)
	if tm.When() != 20*Millisecond {
		t.Fatalf("later rearm: When=%v", tm.When())
	}
	seqBefore = k.seq
	if !tm.Stop() {
		t.Fatal("Stop on armed timer should report true")
	}
	if k.seq != seqBefore {
		t.Fatal("Stop must not consume a seq")
	}
	k.RunFor(Second)
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.Reset(Millisecond)
	k.Run()
	if fired != 1 {
		t.Fatalf("rearmed timer fired %d times, want 1", fired)
	}
	if tm.Pending() {
		t.Fatal("one-shot timer still pending after fire")
	}
	tm.Free()
	if tm.Pending() || tm.Stop() || tm.When() != 0 {
		t.Fatal("freed timer should be inert")
	}
	tm.Free() // double-free must be a no-op
}

// TestTimerFreeReleasesSlot: freeing an armed timer disarms it without
// consuming a seq, the slot must be reusable by ordinary events (the slab
// does not grow), and the freed timer must not be able to touch it.
func TestTimerFreeReleasesSlot(t *testing.T) {
	k := NewKernel(1)
	tm := NewTimer(k, func() {})
	tm.Reset(Second)
	seq := k.seq
	tm.Free()
	if k.seq != seq || k.Pending() != 0 {
		t.Fatalf("Free of an armed timer moved seq %d -> %d or left %d pending", seq, k.seq, k.Pending())
	}
	fired := false
	k.After(Millisecond, func() { fired = true })
	if k.SlabLen() != 1 {
		t.Fatalf("freed timer slot not reused: slab grew to %d slots", k.SlabLen())
	}
	if tm.Stop() {
		t.Fatal("freed timer cancelled another event")
	}
	k.Run()
	if !fired {
		t.Fatal("event on reused slot did not fire")
	}
}

// TestChurnFuzz hammers the slab with a mix of one-shot events and a
// pool of timers that are reset, stopped and freed at random, large
// enough to exercise growth, reuse and in-place rearm together. A model
// tracks every timer's deadline and the number of queued events, and
// every firing is checked against it. Run with -race in CI.
func TestChurnFuzz(t *testing.T) {
	const total = 1_000_000
	n := total
	if testing.Short() {
		n = 50_000
	}
	k := NewKernel(99)
	rng := rand.New(rand.NewSource(7))

	// One-shot events: how many were scheduled, fired and are queued.
	scheduled, fired, outstanding := 0, 0, 0
	oneShot := func() { fired++; outstanding-- }

	// A pool of timers; model[i] is timer i's deadline, or -1 when it is
	// not armed.
	const poolSize = 64
	pool := make([]*Timer, poolSize)
	model := make([]Time, poolSize)
	armed, poolFires, stops, frees := 0, 0, 0, 0
	newTimer := func(i int) *Timer {
		return NewTimer(k, func() {
			if model[i] != k.Now() {
				t.Fatalf("timer %d fired at %v, model deadline %v", i, k.Now(), model[i])
			}
			model[i] = -1
			armed--
			poolFires++
		})
	}
	for i := range pool {
		pool[i] = newTimer(i)
		model[i] = -1
	}

	// A few long-lived timers rearming themselves throughout.
	const rearming = 8
	timerFires := 0
	for i := 0; i < rearming; i++ {
		var tm *Timer
		tm = NewTimer(k, func() {
			timerFires++
			tm.Reset(Time(rng.Intn(50)+1) * Millisecond)
		})
		tm.Reset(Time(i+1) * Millisecond)
	}

	for op := 0; op < n; op++ {
		i := rng.Intn(poolSize)
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // schedule a one-shot event
			k.After(Time(rng.Intn(100)+1)*Millisecond, oneShot)
			scheduled++
			outstanding++
		case 4, 5: // arm or move a pool timer
			d := Time(rng.Intn(100)) * Millisecond
			if model[i] < 0 {
				armed++
			}
			pool[i].Reset(d)
			model[i] = k.Now() + d
		case 6: // stop a pool timer
			if pool[i].Stop() != (model[i] >= 0) {
				t.Fatalf("timer %d: Stop disagrees with model deadline %v", i, model[i])
			}
			if model[i] >= 0 {
				armed--
				stops++
			}
			model[i] = -1
		case 7: // free a pool timer and replace it
			if model[i] >= 0 {
				armed--
				frees++
			}
			pool[i].Free()
			pool[i] = newTimer(i)
			model[i] = -1
		default: // drain a little
			k.RunFor(Time(rng.Intn(5)) * Millisecond)
		}
		if pool[i].When() != max(model[i], 0) || pool[i].Pending() != (model[i] >= 0) {
			t.Fatalf("timer %d: When=%v Pending=%v, model deadline %v", i, pool[i].When(), pool[i].Pending(), model[i])
		}
		if k.Pending() != outstanding+armed+rearming {
			t.Fatalf("Pending = %d, model has %d events, %d pool timers and %d rearming timers queued",
				k.Pending(), outstanding, armed, rearming)
		}
	}
	// Drain everything but the self-rearming timers.
	k.RunFor(200 * Millisecond)

	if fired != scheduled || outstanding != 0 || armed != 0 {
		t.Fatalf("fired %d of %d one-shot events; %d pool timers still armed", fired, scheduled, armed)
	}
	if timerFires == 0 {
		t.Fatal("self-rearming timers never fired")
	}
	if k.Pending() != rearming { // the rearming timers are always armed
		t.Fatalf("Pending at quiescence = %d, want %d rearming timers", k.Pending(), rearming)
	}
	t.Logf("churn: %d ops, %d one-shots, %d pool fires, %d stops, %d frees, %d timer fires, slab=%d slots",
		n, fired, poolFires, stops, frees, timerFires, len(k.slab))
}
