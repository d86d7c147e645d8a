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
// interface boxing, no per-push allocation. A scheduled event cannot be
// cancelled; a component that needs to cancel or rearm holds a Timer,
// whose Stop removes its heap entry eagerly, so every heap entry is a
// live event. See DESIGN.md "Kernel hot path".
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

// Slot states. A slot cycles free -> scheduled -> free (firing), except
// that Timer-owned slots cycle scheduled <-> idle, staying allocated to
// their timer between firings.
const (
	slotFree uint8 = iota
	slotScheduled
	slotIdle
)

// event is one slab entry. Slots are addressed by index, never by pointer:
// the slab may be reallocated by growth at any schedule point.
type event struct {
	when    Time
	seq     uint64
	fn      func()
	heapIdx int32 // position in Kernel.heap; -1 when not queued
	next    int32 // free-list link; meaningful only when state == slotFree
	state   uint8
	pinned  bool // owned by a Timer; never returned to the free list
}

// Kernel is the discrete-event scheduler. It is not safe for concurrent
// use: the whole simulation is single-threaded by design so that runs are
// deterministic.
type Kernel struct {
	now  Time
	slab []event
	free int32   // free-list head, -1 when empty
	heap []int32 // implicit 4-ary min-heap of slot indices over (when, seq)

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

// Pending reports how many events are waiting in the queue. Only tests
// call it: sim's own tests and the LSC event digest that
// experiments' TestSeedReplayEventDigest pins.
func (k *Kernel) Pending() int { return len(k.heap) }

// SlabLen reports how many event slots the kernel has ever allocated: the
// slab's length, which only grows. Freed slots are reused before the slab
// grows, so a run whose components free what they retire holds it flat;
// lifecycle tests gate on it. Only tests call it: sim's
// TestTimerFreeReleasesSlot, guest's TestReleaseFreesTimersAndIsIdempotent
// and the root package's lifecycle tests.
func (k *Kernel) SlabLen() int { return len(k.slab) }

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

// release returns a non-pinned slot to the free list. Clearing fn drops
// the closure so the GC can collect captured state.
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

// heapRemove deletes the entry at heap position i (Timer.Stop).
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
func (k *Kernel) At(t Time, fn func()) {
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
	k.heapPush(slot)
}

// After schedules fn to run d after the current time. Negative delays are
// clamped to zero (fire on the next dispatch, preserving order).
//
//dvc:hotpath
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+d, fn)
}

// Halt stops the run loop after the current event finishes.
func (k *Kernel) Halt() { k.halted = true }

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
	if len(k.heap) == 0 {
		return false
	}
	slot := k.heapPopTop()
	e := &k.slab[slot]
	if e.when < k.now {
		panic("sim: event queue time went backwards")
	}
	k.now = e.when
	fn := e.fn
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

// Run executes events until the queue drains or Halt is called. It returns
// the number of events executed by this call. The simulator itself runs
// its kernels through RunUntil and RunFor; Run is the drain loop of the
// sim, clock, netsim, guest, hpcc, vm and storage tests.
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

// peek reports the earliest pending event time.
func (k *Kernel) peek() (Time, bool) {
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.slab[k.heap[0]].when, true
}
