// Package partition parallelizes a single simulation run: the fabric is
// decomposed into partitions (one per datacenter/fabric zone), each
// owning a complete self-contained sub-simulation — its own sim.Kernel,
// RNG, site slice, and tracer child — and the partitions are
// synchronized with a conservative time-window protocol. Only
// multi-datacenter runs use it (experiments.RunScalePartitioned, the
// PSCALE experiment); a single-zone bed has nothing to partition and
// runs on the plain serial kernel.
//
// # Protocol
//
// Every partition's kernel carries a Gate (sim.SetGate). A partition
// executes events only strictly below the globally granted horizon H;
// when its next event (or a RunUntil deadline) lies at or beyond H it
// blocks in the gate. When ALL live partitions are blocked, the last
// arrival performs the exchange under the coordinator lock:
//
//  1. Every staged cross-partition message — sorted by (arrival time,
//     source partition id, per-source sequence), never by goroutine
//     arrival order — is injected into its destination kernel via At,
//     lowering that partition's request if the message precedes it.
//  2. The new horizon is H' = m + L, where m = min over live partitions'
//     requested times and L is the lookahead (the minimum
//     cross-partition link latency; see phys.ZoneLookahead).
//  3. Partitions whose request lies below H' are released.
//
// Safety: a message sent at virtual time s carries arrival s' >= s + L
// (Partition.Send enforces it), and every sender executes at s < H', so
// s' >= m + L = H' — no message can ever be injected at or before a
// timestamp another partition has already executed past. Progress: the
// partition owning m is always released (m < m + L for L > 0), so every
// barrier fires at least one event somewhere and idle gaps are jumped in
// a single exchange. Termination: when every live partition reports
// need = sim.MaxTime and nothing is staged, the coordinator closes the
// gates.
//
// # Determinism
//
// The windowed schedule is a pure function of virtual times and partition
// ids: the horizon only moves when every live partition is blocked, the
// release set is fixed by the requests, and injections are ordered by
// (arrival, source partition, source sequence). The Workers limit is an
// execution throttle (a counting semaphore around the running phase),
// not a scheduling input — output bytes are identical for any worker
// count, which TestPartitionedMatchesSerial pins the way
// TestParallelMatchesSerial pins trial-level parallelism.
//
// This package is — alongside internal/fleet — sanctioned real
// concurrency next to the deterministic core; see the dvclint notes in
// internal/analysis/rules.go. Closures handed to Coordinator.Run must
// not capture kernel-reaching state from the spawning goroutine (the
// fleetscope analyzer enforces it); each driver builds its whole world
// inside itself.
package partition

import (
	"fmt"
	"sort"
	"sync"

	"dvc/internal/sim"
)

// Config parameterizes a partitioned run.
type Config struct {
	// Lookahead is the conservative window width L: the smallest
	// cross-partition delay any message can have. Must be > 0 — with the
	// fabric partitioned on zone boundaries this is the inter-zone link
	// latency (phys.ZoneLookahead).
	Lookahead sim.Time
	// Workers bounds how many partitions execute concurrently; <= 0
	// means one goroutine per partition (no throttle). Purely a
	// wall-clock knob: output is byte-identical for any value.
	Workers int
}

// message is one staged cross-partition event.
type message struct {
	arrive sim.Time
	src    int
	seq    uint64
	dst    int
	fn     func()
}

// Stats counts coordinator activity over one Run.
type Stats struct {
	// Barriers is the number of exchanges (horizon advances).
	Barriers uint64
	// GateWaits counts partition blocks — each is one sync-barrier stall.
	GateWaits uint64
	// Forwarded counts cross-partition messages injected.
	Forwarded uint64
	// DroppedClosed counts messages addressed to a partition whose
	// driver had already finished (or that never bound a kernel).
	DroppedClosed uint64
}

// Coordinator owns the barrier state of one partitioned run.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	parts   []*Partition
	waiting int
	done    int
	closed  bool
	horizon sim.Time
	stats   Stats

	sem chan struct{} // counting semaphore bounding running partitions
}

// Partition is one member of a partitioned run. Its exported methods are
// called by the partition's own driver goroutine (Bind, Send) or before
// Run starts (ID).
type Partition struct {
	id   int
	c    *Coordinator
	cond sync.Cond

	k       *sim.Kernel // bound by the driver; touched by the coordinator only at barriers
	outbox  []message   // staged sends; drained at barriers
	outSeq  uint64
	req     sim.Time
	waiting bool
	done    bool
}

// ID returns the stable partition id (its index in declaration order) —
// the tiebreaker that fixes cross-partition event ordering.
func (p *Partition) ID() int { return p.id }

// NewCoordinator creates a coordinator with n partitions, with ids 0 to
// n-1.
func NewCoordinator(cfg Config, n int) *Coordinator {
	if cfg.Lookahead <= 0 {
		panic("partition: Lookahead must be > 0 (the conservative window needs a positive width)")
	}
	if n <= 0 {
		panic("partition: need at least one partition")
	}
	c := &Coordinator{cfg: cfg}
	for i := 0; i < n; i++ {
		p := &Partition{id: i, c: c, req: sim.MaxTime}
		p.cond.L = &c.mu
		c.parts = append(c.parts, p)
	}
	if cfg.Workers > 0 && cfg.Workers < n {
		c.sem = make(chan struct{}, cfg.Workers)
	}
	return c
}

// Partitions returns the coordinator's partitions in id order.
func (c *Coordinator) Partitions() []*Partition { return c.parts }

// Stats returns a snapshot of the coordinator counters. Call it after
// Run returns (or from a driver; it locks).
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Bind attaches the driver's kernel to its partition, installing the
// conservative gate. Every driver that runs a kernel must Bind it before
// the first Run/RunUntil/Step; the initial horizon is zero, so the first
// event immediately blocks into the first exchange.
func (p *Partition) Bind(k *sim.Kernel) {
	p.c.mu.Lock()
	p.k = k
	p.c.mu.Unlock()
	k.SetGate(p.gate, 0)
}

// Send stages fn to execute on partition dst's kernel at virtual time
// arrive. It must be called from p's own driver (during event
// execution): the conservative contract requires
// arrive >= p's now + Lookahead, which is checked. Messages become
// visible to dst at the next exchange, ordered by
// (arrive, source partition id, per-source sequence).
func (p *Partition) Send(dst int, arrive sim.Time, fn func()) {
	if dst < 0 || dst >= len(p.c.parts) {
		panic(fmt.Sprintf("partition: Send to unknown partition %d", dst))
	}
	if fn == nil {
		panic("partition: Send with nil callback")
	}
	if p.k != nil {
		if min := p.k.Now() + p.c.cfg.Lookahead; arrive < min {
			panic(fmt.Sprintf("partition: message under lookahead (arrive=%v < now+L=%v); the lookahead must not exceed the minimum cross-partition delay", arrive, min))
		}
	}
	p.outbox = append(p.outbox, message{arrive: arrive, src: p.id, seq: p.outSeq, dst: dst, fn: fn})
	p.outSeq++
}

// gate is the sim.Gate installed on the partition's kernel: record the
// request, complete the barrier if last, park until released, and return
// the horizon granted by the releasing exchange.
func (p *Partition) gate(need sim.Time) (sim.Time, bool) {
	c := p.c
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, false
	}
	p.req = need
	p.waiting = true
	c.waiting++
	c.stats.GateWaits++
	c.releaseSlot() // free an execution slot while parked
	if c.waiting == len(c.parts)-c.done {
		c.exchangeLocked()
	}
	for p.waiting && !c.closed {
		p.cond.Wait()
	}
	granted := c.horizon
	closed := c.closed
	c.mu.Unlock()
	c.acquireSlot() // re-claim an execution slot before running on
	if closed {
		return 0, false
	}
	return granted, true
}

// Run executes driver once per partition, each on its own goroutine, and
// returns when every driver has. The driver builds the partition's
// entire sub-simulation inside itself (fleetscope enforces that its
// closure captures no kernel-reaching state), Binds its kernel, and
// drives it; gates, message exchange and the Workers throttle are
// handled here. A panicking driver is counted as finished — so the
// remaining partitions are not deadlocked at the barrier — and the
// first panic (by partition id) is re-raised after all drivers return.
func (c *Coordinator) Run(driver func(p *Partition)) {
	var wg sync.WaitGroup
	panics := make([]any, len(c.parts))
	for _, p := range c.parts {
		wg.Add(1)
		go func(p *Partition) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[p.id] = r
				}
				c.finish(p)
			}()
			c.acquireSlot()
			defer c.releaseSlot()
			driver(p)
		}(p)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// finish marks a partition's driver as returned and completes the
// barrier if it was the last one standing.
func (c *Coordinator) finish(p *Partition) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.done {
		return
	}
	p.done = true
	p.req = sim.MaxTime
	c.done++
	if c.done == len(c.parts) {
		c.closeLocked()
		return
	}
	if c.waiting == len(c.parts)-c.done && c.waiting > 0 {
		c.exchangeLocked()
	}
}

// exchangeLocked is the barrier body: inject staged messages in
// deterministic order, recompute the horizon, release the partitions it
// covers. Caller holds c.mu and has established that every live
// partition is waiting.
func (c *Coordinator) exchangeLocked() {
	c.stats.Barriers++

	var staged []message
	for _, p := range c.parts {
		staged = append(staged, p.outbox...)
		p.outbox = p.outbox[:0]
	}
	sort.Slice(staged, func(i, j int) bool {
		a, b := staged[i], staged[j]
		if a.arrive != b.arrive {
			return a.arrive < b.arrive
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.seq < b.seq
	})
	for _, m := range staged {
		q := c.parts[m.dst]
		if q.done || q.k == nil {
			c.stats.DroppedClosed++
			continue
		}
		q.k.At(m.arrive, m.fn)
		c.stats.Forwarded++
		if m.arrive < q.req {
			q.req = m.arrive
		}
	}

	min := sim.MaxTime
	for _, p := range c.parts {
		if !p.done && p.req < min {
			min = p.req
		}
	}
	if min == sim.MaxTime {
		// Nothing pending anywhere and nothing in flight: global
		// termination.
		c.closeLocked()
		return
	}
	h := min + c.cfg.Lookahead
	if h <= min { // overflow guard near MaxTime
		h = sim.MaxTime
	}
	c.horizon = h
	for _, p := range c.parts {
		if p.waiting && p.req < h {
			p.waiting = false
			c.waiting--
			p.cond.Signal()
		}
	}
}

// closeLocked ends the run: every parked partition's gate returns
// closed.
func (c *Coordinator) closeLocked() {
	c.closed = true
	for _, p := range c.parts {
		if p.waiting {
			p.waiting = false
			c.waiting--
			p.cond.Signal()
		}
	}
}

// acquireSlot claims an execution slot when a worker throttle is
// configured. Must not be called with c.mu held: parked partitions do
// not hold slots, so a holder blocking here while holding the lock
// could deadlock the exchange.
func (c *Coordinator) acquireSlot() {
	if c.sem != nil {
		c.sem <- struct{}{}
	}
}

// releaseSlot returns an execution slot; never blocks.
func (c *Coordinator) releaseSlot() {
	if c.sem != nil {
		<-c.sem
	}
}
