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
// slot instead of heap-allocating. Pending events wait in one of two
// queues. An event due at the current instant (At(now), After(0), a
// Timer Reset(0) or ResetAt(now)) joins the same-instant lane, a FIFO
// linked through the slab; every other event goes into a hand-rolled
// implicit 4-ary min-heap of slot indices, each stored with a copy of
// its (when, seq) key — no interface boxing, no per-push allocation, and
// no slab load per comparison. Lane entries share one time
// and arrive in seq order, so Step pops whichever of the heap top and the
// lane head is smaller by (when, seq), and the firing order is exactly
// the single-heap order. A scheduled event cannot be cancelled; a
// component that needs to cancel or rearm holds a Timer, whose Stop
// unlinks its slot from the lane or the heap eagerly, so every queued
// entry is a live event. See DESIGN.md "Kernel hot path".
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
	heapIdx int32 // position in Kernel.heap; inLane in the lane; -1 when not queued
	next    int32 // free-list link while free; next lane entry while in the lane
	prev    int32 // previous lane entry while in the lane
	state   uint8
	pinned  bool // owned by a Timer; never returned to the free list
}

// Kernel is the discrete-event scheduler. It is not safe for concurrent
// use: the whole simulation is single-threaded by design so that runs are
// deterministic.
type Kernel struct {
	now  Time
	slab []event
	free int32       // free-list head, -1 when empty
	heap []heapEntry // implicit 4-ary min-heap of slots over (when, seq)

	// The same-instant lane: a FIFO of slots due at now, linked through
	// event.next/prev (-1 ends it), in seq order.
	laneHead, laneTail int32
	laneLen            int

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
	return &Kernel{rng: rand.New(rand.NewSource(seed)), free: -1, laneHead: -1, laneTail: -1}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand exposes the kernel's deterministic random source. All simulated
// randomness must come from here.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Fired reports how many events have executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending reports how many events are waiting, in the heap and the
// same-instant lane. Only tests call it: sim's own tests and the LSC
// event digest that experiments' TestSeedReplayEventDigest pins.
func (k *Kernel) Pending() int { return len(k.heap) + k.laneLen }

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

// --- the two queues ---

// inLane is event.heapIdx for a slot in the same-instant lane.
const inLane int32 = -2

// enqueue queues a scheduled slot: in the lane when it is due now, in the
// heap otherwise.
//
//dvc:hotpath
func (k *Kernel) enqueue(slot int32) {
	if k.slab[slot].when == k.now {
		k.lanePush(slot)
	} else {
		k.heapPush(slot)
	}
}

// unqueue takes a queued slot out of whichever queue holds it.
//
//dvc:hotpath
func (k *Kernel) unqueue(slot int32) {
	if i := k.slab[slot].heapIdx; i == inLane {
		k.laneRemove(slot)
	} else {
		k.heapRemove(int(i))
	}
}

// pop removes and returns the earliest queued slot by (when, seq). Lane
// entries are due now and every heap entry is due at or after now, so
// the heap top wins only when it is also due now and was scheduled
// first.
//
//dvc:hotpath
func (k *Kernel) pop() int32 {
	if slot := k.laneHead; slot >= 0 {
		if len(k.heap) == 0 || k.heap[0].when > k.now || k.heap[0].seq > k.slab[slot].seq {
			k.laneRemove(slot)
			return slot
		}
	}
	return k.heapPopTop()
}

// lanePush appends a slot to the lane. Its seq is the newest, so the
// lane stays in seq order.
//
//dvc:hotpath
func (k *Kernel) lanePush(slot int32) {
	e := &k.slab[slot]
	e.heapIdx = inLane
	e.next = -1
	e.prev = k.laneTail
	if k.laneTail >= 0 {
		k.slab[k.laneTail].next = slot
	} else {
		k.laneHead = slot
	}
	k.laneTail = slot
	k.laneLen++
}

// laneRemove unlinks a slot from anywhere in the lane.
//
//dvc:hotpath
func (k *Kernel) laneRemove(slot int32) {
	e := &k.slab[slot]
	if e.prev >= 0 {
		k.slab[e.prev].next = e.next
	} else {
		k.laneHead = e.next
	}
	if e.next >= 0 {
		k.slab[e.next].prev = e.prev
	} else {
		k.laneTail = e.prev
	}
	e.heapIdx = -1
	k.laneLen--
}

// --- implicit 4-ary min-heap over (when, seq) ---

// heapArity of 4 trades slightly more comparisons per level for half the
// tree depth of a binary heap: sift paths touch fewer cache lines, and
// the four children of a node sit adjacent in one or two lines.
const heapArity = 4

// heapEntry is one heap node: a slot with a copy of its (when, seq) key,
// so a sift compares keys in the heap's own memory instead of loading
// each slot's slab entry.
type heapEntry struct {
	when Time
	seq  uint64
	slot int32
}

// before orders keys by (when, seq). seq is unique, so the order is
// total and pop order is independent of heap layout history.
//
//dvc:hotpath
func (a *heapEntry) before(b *heapEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

//dvc:hotpath
func (k *Kernel) heapPush(slot int32) {
	e := &k.slab[slot]
	e.heapIdx = int32(len(k.heap))
	//lint:allow noalloc amortized heap growth; capacity tracks peak pending events
	k.heap = append(k.heap, heapEntry{when: e.when, seq: e.seq, slot: slot})
	k.siftUp(len(k.heap) - 1)
}

// heapPopTop removes and returns the root slot.
//
//dvc:hotpath
func (k *Kernel) heapPopTop() int32 {
	h := k.heap
	top := h[0].slot
	k.slab[top].heapIdx = -1
	last := len(h) - 1
	if last > 0 {
		h[0] = h[last]
		k.slab[h[0].slot].heapIdx = 0
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
	k.slab[h[i].slot].heapIdx = -1
	if i != last {
		h[i] = h[last]
		k.slab[h[i].slot].heapIdx = int32(i)
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

// siftUp moves the entry at i toward the root; reports whether it moved.
// Parents shift down into the hole, and the entry is written once, where
// it stops.
//
//dvc:hotpath
func (k *Kernel) siftUp(i int) bool {
	h := k.heap
	x := h[i]
	start := i
	for i > 0 {
		p := (i - 1) / heapArity
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		k.slab[h[i].slot].heapIdx = int32(i)
		i = p
	}
	if i == start {
		return false
	}
	h[i] = x
	k.slab[x.slot].heapIdx = int32(i)
	return true
}

// siftDown moves the entry at i toward the leaves, shifting the least
// child up into the hole at each level.
//
//dvc:hotpath
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	x := h[i]
	start := i
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if !h[min].before(&x) {
			break
		}
		h[i] = h[min]
		k.slab[h[i].slot].heapIdx = int32(i)
		i = min
	}
	if i != start {
		h[i] = x
		k.slab[x.slot].heapIdx = int32(i)
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
	k.enqueue(slot)
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
	if len(k.heap) == 0 && k.laneHead < 0 {
		return false
	}
	slot := k.pop()
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

// peek reports the earliest pending event time. A non-empty lane holds
// events due now, and nothing is queued earlier than now.
func (k *Kernel) peek() (Time, bool) {
	if k.laneHead >= 0 {
		return k.now, true
	}
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].when, true
}
