package sim

import "testing"

// BenchmarkKernelChurn measures the kernel's raw event path: schedule an
// event, let it fire, schedule the next — the shape of every hot loop in
// the simulator (TCP transmissions, scheduler pumps, netsim deliveries).
// The per-op unit is one scheduled event.
func BenchmarkKernelChurn(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	var fired int
	var fn func()
	fn = func() { fired++ }
	// Warm the slab/heap so steady state (not growth) is measured.
	for i := 0; i < 1024; i++ {
		k.After(Time(i), fn)
	}
	k.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(Time(i%64), fn)
		if i%16 == 15 {
			k.Run()
		}
	}
	k.Run()
	b.StopTimer()
	if fired == 0 {
		b.Fatal("no events fired")
	}
}

// BenchmarkSameInstant measures the same-instant lane: a timer Reset(0),
// the shape of a guest scheduler pump, and an After(0) handoff, both
// fired by Step past 64 later events waiting in the heap. The per-op unit
// is one burst of two schedules and two fires.
func BenchmarkSameInstant(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.After(Time(i+1)*Second, fn)
	}
	tm := NewTimer(k, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(0)
		k.After(0, fn)
		k.Step()
		k.Step()
	}
}

// BenchmarkTimerRearm measures the rearm-in-place fast path: one pinned
// Timer slot Reset over and over, the shape of a TCP RTO or watchdog that
// is pushed out on every packet. No slot traffic, no closure allocation —
// just a seq assignment and a heap sift.
func BenchmarkTimerRearm(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	fired := 0
	tm := NewTimer(k, func() { fired++ })
	// Background events so the sift has a heap to move through.
	var fn func()
	fn = func() { k.After(Time(64), fn) }
	for i := 0; i < 63; i++ {
		k.After(Time(i+1), fn)
	}
	tm.Reset(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(Time(i%64 + 1))
		if i%16 == 15 {
			k.Step()
		}
	}
}

// TestKernelChurnZeroAllocs is the CI allocation gate: the steady-state
// schedule/fire loop, timer rearms and same-instant bursts through the
// lane must not allocate at all. testing.AllocsPerRun measures a warm
// kernel, so slab/heap growth — a one-time cost — is excluded.
func TestKernelChurnZeroAllocs(t *testing.T) {
	k := NewKernel(1)
	var fn func()
	fired := 0
	fn = func() { fired++ }
	for i := 0; i < 1024; i++ {
		k.After(Time(i), fn)
	}
	k.Run()
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		k.After(Time(i%64), fn)
		if i%16 == 15 {
			k.Run()
		}
		i++
	})
	if avg > 0 {
		t.Fatalf("steady-state churn allocates %.2f allocs/event, want 0", avg)
	}

	tm := NewTimer(k, fn)
	tm.Reset(1)
	j := 0
	avg = testing.AllocsPerRun(1000, func() {
		tm.Reset(Time(j%64 + 1))
		j++
	})
	if avg > 0 {
		t.Fatalf("timer rearm allocates %.2f allocs/op, want 0", avg)
	}

	// A same-instant burst: both schedules join the lane and fire from
	// it, ahead of the timer waiting in the heap.
	pump := NewTimer(k, fn)
	avg = testing.AllocsPerRun(1000, func() {
		pump.Reset(0)
		k.After(0, fn)
		k.Step()
		k.Step()
	})
	if avg > 0 {
		t.Fatalf("same-instant burst allocates %.2f allocs/op, want 0", avg)
	}
	if k.laneLen != 0 || !tm.Pending() {
		t.Fatalf("after the bursts: lane holds %d, rearmed timer pending %v", k.laneLen, tm.Pending())
	}
}
