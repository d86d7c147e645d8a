// Package sim provides the deterministic discrete-event simulation kernel
// that everything else in the DVC reproduction runs on.
//
// The kernel owns virtual time. Components schedule events (callbacks) at
// absolute virtual times or after relative delays; the kernel executes them
// in time order, breaking ties by schedule order, so a simulation with a
// fixed seed is reproducible bit for bit.
//
// # Hot-path design
//
// The event path is allocation-free in steady state. Events live in a slab
// ([]event) threaded by an intrusive free list; scheduling reuses a free
// slot instead of heap-allocating, and the priority queue is a hand-rolled
// implicit 4-ary min-heap over slot indices keyed by (when, seq) — no
// interface boxing, no per-push allocation. Handles are generation-counted
// {slot, gen} values, so cancelling never pins a pointer and a recycled
// slot can never be cancelled through a stale handle. Cancelled events are
// removed lazily (the heap entry dies in place and is discarded when it
// reaches the top, or reclaimed by compaction when dead entries outnumber
// live ones). See DESIGN.md "Kernel hot path".
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation. It is deliberately distinct from time.Time: simulated
// components must never consult the host clock.
type Time int64

// Common durations re-exported for readability at call sites.
const (
	Nanosecond  = Time(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
	Minute      = 60 * Second
	Hour        = 60 * Minute
)

// Duration converts a time.Duration into simulation time units.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// String renders the time with time.Duration formatting for logs.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Slot states. A slot cycles free -> scheduled -> free (firing), with two
// detours: scheduled -> dead (lazy cancel, still occupying a heap entry
// until popped or compacted) and scheduled <-> idle (Timer-owned slots,
// which stay allocated to their timer between firings).
const (
	slotFree uint8 = iota
	slotScheduled
	slotDead
	slotIdle
)

// event is one slab entry. Slots are addressed by index, never by pointer:
// the slab may be reallocated by growth at any schedule point.
type event struct {
	when    Time
	seq     uint64
	fn      func()
	gen     uint32
	heapIdx int32 // position in Kernel.heap; -1 when not queued
	next    int32 // free-list link; meaningful only when state == slotFree
	state   uint8
	pinned  bool // owned by a Timer; never returned to the free list
}

// Handle identifies a scheduled event so it can be cancelled. Handles are
// single-use: once the event fires or is cancelled the handle is inert.
// A Handle is a value (kernel pointer + slot + generation); copying it is
// cheap and stale copies are harmless — the generation check makes every
// operation on a fired/cancelled/recycled slot a no-op.
type Handle struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// valid reports whether the handle still refers to a scheduled event. The
// generation counter is bumped the moment an event fires or is cancelled,
// so gen equality implies state == slotScheduled.
func (h Handle) valid() bool {
	return h.k != nil && h.k.slab[h.slot].gen == h.gen
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if !h.valid() {
		return false
	}
	h.k.cancelSlot(h.slot)
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool { return h.valid() }

// When returns the virtual time the event is scheduled for, or 0 once the
// handle is stale (the event fired or was cancelled, or the slot has been
// recycled for a newer event).
func (h Handle) When() Time {
	if !h.valid() {
		return 0
	}
	return h.k.slab[h.slot].when
}

// Kernel is the discrete-event scheduler. It is not safe for concurrent
// use: the whole simulation is single-threaded by design so that runs are
// deterministic.
type Kernel struct {
	now  Time
	slab []event
	free int32   // free-list head, -1 when empty
	heap []int32 // implicit 4-ary min-heap of slot indices over (when, seq)
	live int     // scheduled (non-dead) events currently queued
	dead int     // cancelled events still occupying heap entries

	seq    uint64
	rng    *rand.Rand
	fired  uint64
	halted bool

	// gate, when set, makes this kernel one member of a partitioned run:
	// events execute only while they fall strictly inside the granted
	// horizon, and the kernel asks the gate — which may block, and may
	// inject new events via At before returning — whenever it needs the
	// horizon extended. See Gate and SetGate.
	gate    Gate
	granted Time
}

// Gate is the conservative-synchronization hook for partitioned runs
// (sim/partition). The kernel calls it with the earliest virtual time it
// wants to reach: the timestamp of its next pending event, or the
// RunUntil deadline it must jump to, or MaxTime when the queue is empty
// and the kernel would otherwise idle forever. The gate returns a new
// exclusive horizon — the kernel may then execute events with timestamps
// strictly below it — or open=false to end the run (global termination).
//
// The gate runs on the kernel's goroutine and may block (that block is
// the partition barrier). It may schedule new events on the kernel
// before returning; the kernel re-examines its queue after every gate
// call, so injected events are picked up even when they precede need.
// A gate that returns without either raising the horizon or injecting
// an event below it would spin the kernel; that contract violation
// panics.
type Gate func(need Time) (horizon Time, open bool)

// MaxTime is the largest representable virtual time. A gated kernel
// reports it as `need` when its queue is empty: it has no lower bound of
// its own and can wait for injected work indefinitely.
const MaxTime = Time(1<<63 - 1)

// SetGate installs (or, with nil, removes) the kernel's gate along with
// the initially granted horizon. Ungated kernels — the default — pay one
// nil check per Step and nothing else.
func (k *Kernel) SetGate(g Gate, granted Time) {
	k.gate = g
	k.granted = granted
}

// admit blocks in the gate until the earliest pending event lies inside
// the granted horizon. It reports false when the gate closed the run —
// no event may ever execute again.
//
//dvc:hotpath
func (k *Kernel) admit() bool {
	for {
		next, ok := k.peek()
		if ok && next < k.granted {
			return true
		}
		need := MaxTime
		if ok {
			need = next
		}
		old := k.granted
		h, open := k.gate(need)
		if !open {
			return false
		}
		if h > k.granted {
			k.granted = h
		}
		if next2, ok2 := k.peek(); k.granted == old && next2 == next && ok2 == ok {
			panic("sim: gate made no progress (horizon and queue unchanged)")
		}
	}
}

// gateAdvance asks the gate for permission to move the clock to
// deadline (RunUntil's trailing jump: the region (now, deadline] must be
// provably free of future injections before time skips over it). It
// reports true when the gate instead made earlier work available —
// events at or before deadline — which the caller should execute first.
// On a false return either the granted horizon exceeds deadline (the
// jump is safe) or the gate closed (no injections can ever come).
func (k *Kernel) gateAdvance(deadline Time) bool {
	for k.granted <= deadline {
		old := k.granted
		h, open := k.gate(deadline)
		if !open {
			return false
		}
		if h > k.granted {
			k.granted = h
		}
		if next, ok := k.peek(); ok && next <= deadline {
			return true
		}
		if k.granted == old {
			panic("sim: gate made no progress (horizon and queue unchanged)")
		}
	}
	next, ok := k.peek()
	return ok && next <= deadline
}

// NewKernel returns a kernel whose random source is seeded with seed.
// Two kernels with the same seed and the same schedule of calls produce
// identical simulations.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed)), free: -1}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. All simulated
// randomness must come from here.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired reports how many events have executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending reports how many live events are waiting in the queue. Cancelled
// events that still occupy heap entries are excluded: queue-depth probes
// must see load, not garbage awaiting collection.
func (k *Kernel) Pending() int { return k.live }

// SlabLen reports how many event slots the kernel has ever allocated: the
// slab's length, which only grows. Freed slots are reused before the slab
// grows, so a run whose components free what they retire holds it flat;
// lifecycle tests gate on it.
func (k *Kernel) SlabLen() int { return len(k.slab) }

// deadEntries reports cancelled events still occupying heap entries
// (exported to tests via export_test.go).
func (k *Kernel) deadEntries() int { return k.dead }

// --- slab management ---

// alloc pops a slot off the free list, growing the slab when empty.
//
//dvc:hotpath
func (k *Kernel) alloc() int32 {
	if k.free >= 0 {
		slot := k.free
		k.free = k.slab[slot].next
		return slot
	}
	//lint:allow noalloc amortized slab growth; steady state reuses the free list
	k.slab = append(k.slab, event{heapIdx: -1, next: -1})
	return int32(len(k.slab) - 1)
}

// release returns a non-pinned slot to the free list. The generation was
// already bumped when the event died; clearing fn drops the closure so the
// GC can collect captured state.
//
//dvc:hotpath
func (k *Kernel) release(slot int32) {
	e := &k.slab[slot]
	e.fn = nil
	e.state = slotFree
	e.heapIdx = -1
	e.next = k.free
	k.free = slot
}

// cancelSlot lazily kills a scheduled slot: the heap entry stays where it
// is (marked dead) and is reclaimed when it surfaces or when compaction
// runs. The generation bump makes every outstanding handle stale.
//
//dvc:hotpath
func (k *Kernel) cancelSlot(slot int32) {
	e := &k.slab[slot]
	e.gen++
	e.state = slotDead
	e.fn = nil
	k.live--
	k.dead++
	k.maybeCompact()
}

// maybeCompact rebuilds the heap without its dead entries once they
// outnumber the live ones. The trigger depends only on deterministic
// counters and the rebuild only on heap array order, so compaction is part
// of the reproducible schedule.
//
//dvc:hotpath
func (k *Kernel) maybeCompact() {
	const minDead = 64
	if k.dead < minDead || k.dead <= k.live {
		return
	}
	kept := k.heap[:0]
	for _, slot := range k.heap {
		if k.slab[slot].state == slotDead {
			k.release(slot)
			continue
		}
		kept = append(kept, slot) //lint:allow noalloc appends into k.heap[:0], never beyond existing capacity
	}
	k.heap = kept
	k.dead = 0
	for i := range k.heap {
		k.slab[k.heap[i]].heapIdx = int32(i)
	}
	// Heapify bottom-up: parents of the last element downward.
	if n := len(k.heap); n > 1 {
		for i := (n - 2) / heapArity; i >= 0; i-- {
			k.siftDown(i)
		}
	}
}

// --- implicit 4-ary min-heap over (when, seq) ---

// heapArity of 4 trades slightly more comparisons per level for half the
// tree depth of a binary heap: sift paths touch fewer cache lines, and
// the four children of a node sit adjacent in one or two lines.
const heapArity = 4

// less orders slots by (when, seq). seq is unique, so the order is total
// and pop order is independent of heap layout history.
//
//dvc:hotpath
func (k *Kernel) less(a, b int32) bool {
	ea, eb := &k.slab[a], &k.slab[b]
	if ea.when != eb.when {
		return ea.when < eb.when
	}
	return ea.seq < eb.seq
}

//dvc:hotpath
func (k *Kernel) heapPush(slot int32) {
	k.slab[slot].heapIdx = int32(len(k.heap))
	//lint:allow noalloc amortized heap growth; capacity tracks peak pending events
	k.heap = append(k.heap, slot)
	k.siftUp(len(k.heap) - 1)
}

// heapPopTop removes and returns the root slot.
//
//dvc:hotpath
func (k *Kernel) heapPopTop() int32 {
	h := k.heap
	top := h[0]
	k.slab[top].heapIdx = -1
	last := len(h) - 1
	if last > 0 {
		h[0] = h[last]
		k.slab[h[0]].heapIdx = 0
	}
	k.heap = h[:last]
	if last > 1 {
		k.siftDown(0)
	}
	return top
}

// heapRemove deletes the entry at heap position i (Timer.Stop's eager
// removal; timers never leave dead entries behind).
//
//dvc:hotpath
func (k *Kernel) heapRemove(i int) {
	h := k.heap
	last := len(h) - 1
	k.slab[h[i]].heapIdx = -1
	if i != last {
		h[i] = h[last]
		k.slab[h[i]].heapIdx = int32(i)
	}
	k.heap = h[:last]
	if i < last {
		k.siftFix(i)
	}
}

// siftFix restores heap order at i after an arbitrary key change.
//
//dvc:hotpath
func (k *Kernel) siftFix(i int) {
	if !k.siftUp(i) {
		k.siftDown(i)
	}
}

// siftUp moves i toward the root; reports whether it moved.
//
//dvc:hotpath
func (k *Kernel) siftUp(i int) bool {
	h := k.heap
	moved := false
	for i > 0 {
		p := (i - 1) / heapArity
		if !k.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		k.slab[h[i]].heapIdx = int32(i)
		k.slab[h[p]].heapIdx = int32(p)
		i = p
		moved = true
	}
	return moved
}

//dvc:hotpath
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if k.less(h[c], h[min]) {
				min = c
			}
		}
		if !k.less(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		k.slab[h[i]].heapIdx = int32(i)
		k.slab[h[min]].heapIdx = int32(min)
		i = min
	}
}

// --- scheduling ---

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: that is always a logic error in a discrete-event model.
//
//dvc:hotpath
func (k *Kernel) At(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past (now=%v, t=%v)", k.now, t))
	}
	slot := k.alloc()
	e := &k.slab[slot]
	e.when = t
	e.seq = k.seq
	e.fn = fn
	e.state = slotScheduled
	k.seq++
	k.live++
	k.heapPush(slot)
	return Handle{k: k, slot: slot, gen: e.gen}
}

// After schedules fn to run d after the current time. Negative delays are
// clamped to zero (fire on the next dispatch, preserving order).
//
//dvc:hotpath
func (k *Kernel) After(d Time, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// Halt stops the run loop after the current event finishes.
func (k *Kernel) Halt() { k.halted = true }

// Halted reports whether Halt has been called.
func (k *Kernel) Halted() bool { return k.halted }

// Step executes the single next pending event, advancing virtual time to
// its timestamp. It reports false when the queue is empty — or, on a
// gated kernel, when the gate has closed the run. A gated Step may block
// in the gate (the partition barrier) until the next event falls inside
// the granted horizon; an empty queue then waits for injected work
// instead of returning immediately.
//
//dvc:hotpath
func (k *Kernel) Step() bool {
	if k.gate != nil && !k.admit() {
		return false
	}
	for len(k.heap) > 0 {
		slot := k.heapPopTop()
		e := &k.slab[slot]
		if e.state == slotDead {
			k.dead--
			k.release(slot)
			continue
		}
		if e.when < k.now {
			panic("sim: event queue time went backwards")
		}
		k.now = e.when
		fn := e.fn
		e.gen++
		k.live--
		// Free the slot before dispatching: the callback may schedule new
		// events, and the hottest pattern (fire -> reschedule) then reuses
		// this very slot. Timer-owned slots park in slotIdle instead,
		// keeping their bound callback for the next Reset.
		if e.pinned {
			e.state = slotIdle
		} else {
			k.release(slot)
		}
		k.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Halt is called. It returns
// the number of events executed by this call.
func (k *Kernel) Run() uint64 {
	start := k.fired
	k.halted = false
	for !k.halted && k.Step() {
	}
	return k.fired - start
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued; virtual time is advanced to deadline
// if the run was not halted early (so that subsequent scheduling is
// relative to the deadline).
//
// On a gated kernel the trailing clock jump is itself gated: the region
// (now, deadline] must be provably free of cross-partition injections
// before time skips over it, so the kernel holds at the barrier until
// the granted horizon passes the deadline — executing any events other
// partitions inject below it along the way.
func (k *Kernel) RunUntil(deadline Time) uint64 {
	start := k.fired
	k.halted = false
	for !k.halted {
		next, ok := k.peek()
		if !ok || next > deadline {
			if k.gate != nil && k.gateAdvance(deadline) {
				continue
			}
			break
		}
		if !k.Step() {
			break
		}
	}
	if !k.halted && k.now < deadline {
		k.now = deadline
	}
	return k.fired - start
}

// RunFor is RunUntil(Now()+d).
func (k *Kernel) RunFor(d Time) uint64 { return k.RunUntil(k.now + d) }

// peek reports the earliest live event time, discarding dead entries that
// have surfaced at the top of the heap.
func (k *Kernel) peek() (Time, bool) {
	for len(k.heap) > 0 {
		top := k.heap[0]
		if k.slab[top].state == slotDead {
			k.heapPopTop()
			k.dead--
			k.release(top)
			continue
		}
		return k.slab[top].when, true
	}
	return 0, false
}

// NextEventTime reports the timestamp of the earliest pending event.
func (k *Kernel) NextEventTime() (Time, bool) { return k.peek() }
