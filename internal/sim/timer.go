package sim

// Timer is a rearmable event: one callback, bound once, fired whenever the
// timer is armed and expires. It is the kernel's only way to cancel or
// move an event, and it exists for the simulator's churn-heavy timers —
// TCP retransmission, guest scheduler pumps, watchdog and resource-manager
// ticks — which would otherwise schedule a fresh event (plus a fresh
// closure) on every rearm. A Timer owns one slab slot for its whole life:
// Reset rearms that slot in place (new deadline, fresh sequence number,
// re-sifted heap position, or the tail of the same-instant lane when it
// is due now) and Stop unlinks it from its queue eagerly, so timers never
// allocate after creation.
//
// Determinism contract: Reset consumes exactly one kernel sequence number,
// the same as a fresh Kernel.After, so a Timer fires in exactly the
// (when, seq) order that scheduling a fresh event per arm would produce.
// Stop consumes none.
//
// The zero Timer is not usable; create one with NewTimer. Like the Kernel,
// Timers are single-threaded by design.
type Timer struct {
	k    *Kernel
	slot int32
}

// NewTimer allocates a timer that runs fn on expiry. The callback is bound
// for the timer's lifetime; per-firing state belongs in the closure's
// captured variables, not in rebinding.
func NewTimer(k *Kernel, fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	slot := k.alloc()
	e := &k.slab[slot]
	e.fn = fn
	e.state = slotIdle
	e.pinned = true
	e.heapIdx = -1
	return &Timer{k: k, slot: slot}
}

// Reset (re)arms the timer to fire d after the current time. Negative
// delays clamp to zero, like Kernel.After. If the timer is already armed
// its slot is rearmed in place — no cancel, no reallocation.
//
//dvc:hotpath
func (t *Timer) Reset(d Time) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.k.now + d)
}

// ResetAt (re)arms the timer to fire at absolute time at. Arming in the
// past panics, like Kernel.At.
//
//dvc:hotpath
func (t *Timer) ResetAt(at Time) {
	if t.slot < 0 {
		panic("sim: Reset on a freed timer")
	}
	k := t.k
	if at < k.now {
		panic("sim: Timer.ResetAt into the past")
	}
	e := &k.slab[t.slot]
	e.when = at
	e.seq = k.seq
	k.seq++
	switch e.state {
	case slotIdle:
		e.state = slotScheduled
		k.enqueue(t.slot)
	case slotScheduled:
		if e.heapIdx >= 0 && at != k.now {
			h := &k.heap[e.heapIdx]
			h.when, h.seq = e.when, e.seq
			k.siftFix(int(e.heapIdx))
		} else {
			k.unqueue(t.slot)
			k.enqueue(t.slot)
		}
	default:
		panic("sim: Reset on a freed timer")
	}
}

// Stop disarms the timer, reporting whether it was armed. The slot leaves
// its queue (the heap or the same-instant lane) at once and stays owned
// by the timer, so a Stop/Reset cycle is allocation-free.
//
//dvc:hotpath
func (t *Timer) Stop() bool {
	if t == nil || t.slot < 0 {
		return false
	}
	k := t.k
	e := &k.slab[t.slot]
	if e.state != slotScheduled {
		return false
	}
	k.unqueue(t.slot)
	e.state = slotIdle
	return true
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool {
	return t != nil && t.slot >= 0 && t.k.slab[t.slot].state == slotScheduled
}

// When returns the expiry time while the timer is armed, 0 otherwise.
func (t *Timer) When() Time {
	if t == nil || t.slot < 0 {
		return 0
	}
	e := &t.k.slab[t.slot]
	if e.state != slotScheduled {
		return 0
	}
	return e.when
}

// Free disarms the timer and returns its slot to the kernel's pool. The
// timer must not be used afterwards. Free consumes no sequence number, so
// freeing never changes event order.
//
// Retire contract: a timer's slot holds its callback, and with it
// everything the callback captures, for as long as the slot is pinned.
// An owner that dies before its kernel must therefore Free every timer it
// created (TCP connections on teardown, guest OSes on Release). Only a
// timer whose owner lives as long as the kernel may simply be dropped.
func (t *Timer) Free() {
	if t == nil || t.slot < 0 {
		return
	}
	t.Stop()
	e := &t.k.slab[t.slot]
	e.pinned = false
	t.k.release(t.slot)
	t.slot = -1
}
