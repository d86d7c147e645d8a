package sim

// Tests pinning the pooled-slab event system's observable semantics:
// generation-counted handles must stay inert across slot reuse, Pending
// must report live events only, compaction must not perturb the schedule,
// and Timer rearm must consume exactly the same seq stream as the
// cancel+reschedule pattern it replaces.

import (
	"math/rand"
	"testing"
)

// TestStaleHandleNeverCancelsRecycledSlot schedules an event, lets it
// fire (freeing its slot), schedules a second event that reuses the same
// slot, and asserts the stale first handle cannot cancel — or even see —
// the second event.
func TestStaleHandleNeverCancelsRecycledSlot(t *testing.T) {
	k := NewKernel(1)
	h1 := k.After(Millisecond, func() {})
	k.Run()

	fired := false
	h2 := k.After(Millisecond, func() { fired = true })
	if h1.slot != h2.slot {
		t.Fatalf("expected slot reuse after fire: h1.slot=%d h2.slot=%d", h1.slot, h2.slot)
	}
	if h1.Pending() {
		t.Fatal("stale handle reports Pending after its event fired")
	}
	if h1.Cancel() {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	k.Run()
	if !fired {
		t.Fatal("second event did not fire; stale handle interfered")
	}
}

// TestCancelledSlotReuseKeepsOldHandleInert covers the cancel (rather
// than fire) path to slot reuse: the dead entry is lazily freed when it
// surfaces, and the old handle must stay inert against the new tenant.
func TestCancelledSlotReuseKeepsOldHandleInert(t *testing.T) {
	k := NewKernel(1)
	h1 := k.After(Millisecond, func() { t.Fatal("cancelled event fired") })
	if !h1.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	if h1.Cancel() {
		t.Fatal("second Cancel on the same handle should fail")
	}
	k.Run() // surfaces the dead entry, releasing the slot

	fired := false
	h2 := k.After(Millisecond, func() { fired = true })
	if h1.slot != h2.slot {
		t.Fatalf("expected slot reuse after lazy reclaim: h1.slot=%d h2.slot=%d", h1.slot, h2.slot)
	}
	if h1.Cancel() || h1.Pending() {
		t.Fatal("stale handle still acts on a recycled slot")
	}
	k.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestWhenOnRecycledSlotReturnsZero: When() must go stale together with
// Pending(), not leak the recycled tenant's deadline.
func TestWhenOnRecycledSlotReturnsZero(t *testing.T) {
	k := NewKernel(1)
	h1 := k.After(Millisecond, func() {})
	if h1.When() != Millisecond {
		t.Fatalf("live When = %v, want %v", h1.When(), Millisecond)
	}
	k.Run()
	if h1.When() != 0 {
		t.Fatalf("When after fire = %v, want 0", h1.When())
	}
	h2 := k.After(5*Millisecond, func() {})
	if h1.slot != h2.slot {
		t.Fatalf("expected slot reuse: h1.slot=%d h2.slot=%d", h1.slot, h2.slot)
	}
	if h1.When() != 0 {
		t.Fatalf("stale When leaked recycled tenant's deadline: %v", h1.When())
	}
	if got := h2.When(); got != k.Now()+5*Millisecond {
		t.Fatalf("live When on recycled slot = %v", got)
	}
}

// TestPendingCountsLiveOnly is the satellite-2 regression test: cancelled
// events still occupy heap entries until lazily reclaimed, but Pending
// must not count them. The old container/heap kernel reported len(heap),
// which overstated queue depth in obs traces by orders of magnitude.
func TestPendingCountsLiveOnly(t *testing.T) {
	k := NewKernel(1)
	var hs []Handle
	for i := 0; i < 100; i++ {
		hs = append(hs, k.After(Time(i+1)*Millisecond, func() {}))
	}
	if k.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", k.Pending())
	}
	for i := 0; i < 100; i += 2 {
		hs[i].Cancel()
	}
	if k.Pending() != 50 {
		t.Fatalf("Pending after cancelling half = %d, want 50", k.Pending())
	}
	if k.deadEntries() == 0 {
		t.Fatal("expected dead entries still parked in the heap")
	}
	// peek must not change the live count even as it sweeps dead entries.
	if _, ok := k.NextEventTime(); !ok {
		t.Fatal("queue should be non-empty")
	}
	if k.Pending() != 50 {
		t.Fatalf("Pending after peek = %d, want 50", k.Pending())
	}
	k.Run()
	if k.Pending() != 0 || k.deadEntries() != 0 {
		t.Fatalf("after Run: Pending=%d dead=%d, want 0/0", k.Pending(), k.deadEntries())
	}
}

// TestCompactionReclaimsDeadAndPreservesOrder drives the dead count past
// the compaction threshold and checks both that the heap was rebuilt
// (dead reset) and that the surviving events still fire in (when, seq)
// order.
func TestCompactionReclaimsDeadAndPreservesOrder(t *testing.T) {
	k := NewKernel(7)
	rng := rand.New(rand.NewSource(42))
	var keep []int
	var order []int
	for i := 0; i < 400; i++ {
		i := i
		h := k.At(Time(rng.Intn(1000)+1)*Millisecond, func() { order = append(order, i) })
		if i%4 == 0 {
			keep = append(keep, i)
			_ = h
		} else {
			h.Cancel()
		}
	}
	// 300 cancels against 100 live: compaction must have triggered.
	if k.deadEntries() > k.Pending() {
		t.Fatalf("compaction did not run: dead=%d live=%d", k.deadEntries(), k.Pending())
	}
	if k.Pending() != len(keep) {
		t.Fatalf("Pending = %d, want %d", k.Pending(), len(keep))
	}
	k.Run()
	if len(order) != len(keep) {
		t.Fatalf("fired %d events, want %d", len(order), len(keep))
	}
	seen := make(map[int]bool)
	for _, id := range order {
		if id%4 != 0 {
			t.Fatalf("cancelled event %d fired after compaction", id)
		}
		if seen[id] {
			t.Fatalf("event %d fired twice", id)
		}
		seen[id] = true
	}
}

// TestCompactionIsScheduleNeutral runs the same randomized workload with
// and without enough cancellations to trigger compaction of *unrelated*
// events, asserting the surviving schedule is identical. Compaction must
// be invisible to pop order.
func TestCompactionIsScheduleNeutral(t *testing.T) {
	run := func(churn bool) []int {
		k := NewKernel(3)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			k.At(Time(i%10+1)*Second, func() { order = append(order, i) })
		}
		if churn {
			// Park and cancel enough far-future events to force compaction.
			var hs []Handle
			for i := 0; i < 200; i++ {
				hs = append(hs, k.At(Hour, func() {}))
			}
			for _, h := range hs {
				h.Cancel()
			}
			if k.deadEntries() != 0 && k.deadEntries() > k.Pending() {
				t.Fatal("compaction should have triggered")
			}
		}
		k.Run()
		return order
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("schedule length changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pop order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTimerRearmMatchesCancelReschedule asserts the Timer fast path is
// seq-for-seq identical to the Cancel+After pattern it replaces: the same
// workload driven both ways must produce the same firing times and the
// same final seq counter, so converting a call site cannot shift any
// other event's tiebreak.
func TestTimerRearmMatchesCancelReschedule(t *testing.T) {
	type obs struct {
		times []Time
		seq   uint64
	}
	viaHandle := func() obs {
		k := NewKernel(9)
		var o obs
		var h Handle
		n := 0
		var arm func(d Time)
		arm = func(d Time) {
			h = k.After(d, func() {
				o.times = append(o.times, k.Now())
				n++
				if n < 5 {
					arm(Time(n) * Millisecond)
				}
			})
		}
		arm(Millisecond)
		_ = h
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
	a, b := viaHandle(), viaTimer()
	if a.seq != b.seq {
		t.Fatalf("seq consumption diverged: handle=%d timer=%d", a.seq, b.seq)
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
// rearm while scheduled, and Stop consuming no seq (parity with Cancel).
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
	slot := tm.slot
	tm.Reset(Second)
	seq := k.seq
	tm.Free()
	if k.seq != seq || k.Pending() != 0 {
		t.Fatalf("Free of an armed timer moved seq %d -> %d or left %d pending", seq, k.seq, k.Pending())
	}
	fired := false
	h := k.After(Millisecond, func() { fired = true })
	if h.slot != slot || k.SlabLen() != 1 {
		t.Fatalf("expected freed timer slot %d to be reused, got %d (slab %d)", slot, h.slot, k.SlabLen())
	}
	if tm.Stop() {
		t.Fatal("freed timer cancelled another event")
	}
	k.Run()
	if !fired {
		t.Fatal("event on reused slot did not fire")
	}
}

// TestChurnFuzz hammers the slab with a schedule/cancel/fire mix large
// enough to exercise growth, reuse, compaction, and timer rearm together,
// cross-checking a model of expected firings. Run with -race in CI.
func TestChurnFuzz(t *testing.T) {
	const total = 1_000_000
	n := total
	if testing.Short() {
		n = 50_000
	}
	k := NewKernel(99)
	rng := rand.New(rand.NewSource(7))

	fired := 0
	cancelled := 0
	expectFired := 0
	var pendingH []Handle

	// A few long-lived timers rearming themselves throughout.
	timerFires := 0
	for i := 0; i < 8; i++ {
		var tm *Timer
		tm = NewTimer(k, func() {
			timerFires++
			tm.Reset(Time(rng.Intn(50)+1) * Millisecond)
		})
		tm.Reset(Time(i+1) * Millisecond)
	}

	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // schedule
			pendingH = append(pendingH, k.After(Time(rng.Intn(100)+1)*Millisecond, func() { fired++ }))
			expectFired++
		case 6, 7: // cancel a random outstanding handle
			if len(pendingH) > 0 {
				j := rng.Intn(len(pendingH))
				if pendingH[j].Cancel() {
					cancelled++
					expectFired--
				}
				pendingH[j] = pendingH[len(pendingH)-1]
				pendingH = pendingH[:len(pendingH)-1]
			}
		default: // drain a little
			k.RunFor(Time(rng.Intn(5)) * Millisecond)
		}
	}
	// Drain everything but the self-rearming timers.
	k.RunFor(200 * Millisecond)

	if fired != expectFired {
		t.Fatalf("fired %d events, model expected %d (cancelled %d)", fired, expectFired, cancelled)
	}
	if timerFires == 0 {
		t.Fatal("self-rearming timers never fired")
	}
	if k.Pending() != 8 { // the 8 timers are always armed
		t.Fatalf("Pending at quiescence = %d, want 8 rearming timers", k.Pending())
	}
	t.Logf("churn: %d ops, %d fired, %d cancelled, %d timer fires, slab=%d slots",
		n, fired, cancelled, timerFires, len(k.slab))
}
