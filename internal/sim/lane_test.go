package sim

// A differential test of the same-instant lane: the kernel must fire
// events in the order of a reference model that keeps every pending event
// in a flat list and takes the smallest (when, schedule counter), the
// order a single heap gives.

import (
	"math/rand"
	"testing"
)

// refEvent is one pending event of the reference model.
type refEvent struct {
	id   int
	when Time
	seq  uint64
}

// refModel mirrors the kernel's schedule: every At, After and Timer
// Reset takes the next counter value, exactly as it takes a kernel seq.
type refModel struct {
	seq     uint64
	pending []refEvent
}

// schedule queues id at when, replacing id's pending entry if any.
func (m *refModel) schedule(id int, when Time) {
	m.cancel(id)
	m.pending = append(m.pending, refEvent{id: id, when: when, seq: m.seq})
	m.seq++
}

// cancel drops id's pending entry, reporting whether it had one.
func (m *refModel) cancel(id int) bool {
	for i, e := range m.pending {
		if e.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

// pop removes and returns the earliest entry by (when, seq).
func (m *refModel) pop() (refEvent, bool) {
	if len(m.pending) == 0 {
		return refEvent{}, false
	}
	min := 0
	for i, e := range m.pending {
		if e.when < m.pending[min].when || e.when == m.pending[min].when && e.seq < m.pending[min].seq {
			min = i
		}
	}
	e := m.pending[min]
	m.pending = append(m.pending[:min], m.pending[min+1:]...)
	return e, true
}

// laneRig drives a kernel and the model side by side. Every callback
// checks that it is the model's next event, then makes random schedule
// calls at the current instant and later.
type laneRig struct {
	t      *testing.T
	k      *Kernel
	rng    *rand.Rand
	m      refModel
	timers []*Timer
	ids    []int // ids[i] is timers[i]'s model id
	nextID int
	fired  int
	laneOp int  // schedules that joined the lane
	quiet  bool // callbacks schedule nothing, so the queue drains
}

func newLaneRig(t *testing.T, seed int64, nTimers int) *laneRig {
	r := &laneRig{t: t, k: NewKernel(seed), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < nTimers; i++ {
		r.timers = append(r.timers, nil)
		r.ids = append(r.ids, 0)
		r.newTimer(i)
	}
	return r
}

func (r *laneRig) newTimer(i int) {
	id := r.nextID
	r.nextID++
	r.timers[i] = NewTimer(r.k, func() { r.fire(id) })
	r.ids[i] = id
}

// fire is every event's callback.
func (r *laneRig) fire(id int) {
	want, ok := r.m.pop()
	if !ok {
		r.t.Fatalf("event %d fired at %v; the model has nothing pending", id, r.k.Now())
	}
	if want.id != id || want.when != r.k.Now() {
		r.t.Fatalf("fire %d: event %d at %v, the model wants %d at %v", r.fired, id, r.k.Now(), want.id, want.when)
	}
	r.fired++
	if !r.quiet && len(r.m.pending) < 64 {
		for n := r.rng.Intn(4); n > 0; n-- {
			r.op()
		}
	}
}

// oneShot returns a fresh id and its callback.
func (r *laneRig) oneShot() (int, func()) {
	id := r.nextID
	r.nextID++
	return id, func() { r.fire(id) }
}

// delay draws a short delay, zero a third of the time, so events collide
// on one instant both in the heap and in the lane.
func (r *laneRig) delay() Time {
	if r.rng.Intn(3) == 0 {
		return 0
	}
	return Time(r.rng.Intn(4))
}

// op makes one random schedule call on the kernel and the model.
func (r *laneRig) op() {
	k, now := r.k, r.k.Now()
	i := r.rng.Intn(len(r.timers))
	tm, tid := r.timers[i], r.ids[i]
	switch r.rng.Intn(10) {
	case 0:
		id, fn := r.oneShot()
		k.At(now, fn)
		r.m.schedule(id, now)
		r.laneOp++
	case 1:
		id, fn := r.oneShot()
		k.After(0, fn)
		r.m.schedule(id, now)
		r.laneOp++
	case 2:
		id, fn := r.oneShot()
		d := r.delay()
		k.At(now+d, fn)
		r.m.schedule(id, now+d)
	case 3:
		tm.Reset(0)
		r.m.schedule(tid, now)
		r.laneOp++
	case 4:
		tm.ResetAt(now)
		r.m.schedule(tid, now)
		r.laneOp++
	case 5:
		d := r.delay()
		tm.Reset(d)
		r.m.schedule(tid, now+d)
	case 6:
		if got, want := tm.Stop(), r.m.cancel(tid); got != want {
			r.t.Fatalf("Stop reported %v, the model %v", got, want)
		}
	case 7:
		tm.Free()
		r.m.cancel(tid)
		r.newTimer(i)
	default:
		// Re-arm a timer that already waits in the lane.
		for j, tm := range r.timers {
			if tm.Pending() && tm.When() == now {
				tm.Reset(0)
				r.m.schedule(r.ids[j], now)
				r.laneOp++
				break
			}
		}
	}
}

// check compares the queue depth with the model's.
func (r *laneRig) check(step int) {
	r.t.Helper()
	if got, want := r.k.Pending(), len(r.m.pending); got != want {
		r.t.Fatalf("step %d: Pending %d, the model %d", step, got, want)
	}
}

func TestLaneMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := newLaneRig(t, seed, 12)
		for step := 0; step < 20000; step++ {
			if r.k.Pending() == 0 || r.rng.Intn(8) == 0 {
				r.op()
				r.check(step)
			}
			if !r.k.Step() {
				continue
			}
			r.check(step)
		}
		r.quiet = true
		for r.k.Step() {
		}
		r.check(-1)
		if r.fired < 10000 || r.laneOp < 5000 {
			t.Fatalf("seed %d: %d fires and %d lane schedules; the mix is too thin", seed, r.fired, r.laneOp)
		}
	}
}

// TestGatedLaneMatchesReferenceOrder runs the same mix on a gated kernel
// whose gate injects events at the current instant and at the requested
// time before it widens the horizon by a random step.
func TestGatedLaneMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := newLaneRig(t, seed, 8)
		calls, injected := 0, 0
		var horizon Time
		r.k.SetGate(func(need Time) (Time, bool) {
			calls++
			if calls > 20000 {
				if need == MaxTime {
					return 0, false
				}
				r.quiet = true
			}
			now := r.k.Now()
			if !r.quiet && r.rng.Intn(2) == 0 {
				id, fn := r.oneShot()
				r.k.At(now, fn)
				r.m.schedule(id, now)
				injected++
			}
			if !r.quiet && need != MaxTime && r.rng.Intn(3) == 0 {
				id, fn := r.oneShot()
				r.k.At(need, fn)
				r.m.schedule(id, need)
			}
			horizon += 1 + Time(r.rng.Intn(3))
			return horizon, true
		}, 0)
		step := 0
		for r.k.Step() {
			r.check(step)
			step++
		}
		r.check(step)
		if len(r.m.pending) != 0 {
			t.Fatalf("seed %d: the gate closed with %d events pending in the model", seed, len(r.m.pending))
		}
		if r.fired < 5000 || injected < 1000 {
			t.Fatalf("seed %d: %d fires and %d injections at now; the mix is too thin", seed, r.fired, injected)
		}
	}
}
