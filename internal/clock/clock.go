// Package clock models per-node hardware clocks and NTP clock discipline.
//
// Lazy Synchronous Checkpointing's NTP-based coordinator (paper §3.1)
// schedules a "vm save" at the same host-clock time on every node. Its
// correctness window is therefore set by the residual error NTP leaves
// behind — a few milliseconds (Mills, "Improved algorithms for
// synchronizing computer network clocks"). This package provides exactly
// that: a hardware clock with frequency error (drift) and phase error
// (offset), and a daemon that periodically disciplines it.
package clock

import (
	"dvc/internal/sim"
)

// Clock is one node's view of wall time. Reading it converts the
// simulation's true time into the node's (slightly wrong) host time.
type Clock struct {
	kernel *sim.Kernel

	// offset is the phase error at the time of the last adjustment:
	// host = true + offset + drift*(true-adjustedAt).
	offset     sim.Time
	driftPPM   float64 // frequency error in parts per million
	adjustedAt sim.Time
}

// Config describes how wrong a free-running clock is.
type Config struct {
	// InitialOffsetStd is the standard deviation of the phase error a
	// node boots with. Unsynchronised commodity nodes are typically off
	// by whole seconds.
	InitialOffsetStd sim.Time
	// DriftPPMStd is the standard deviation of the oscillator frequency
	// error. Commodity quartz is 10–100 ppm.
	DriftPPMStd float64
}

// DefaultConfig matches commodity cluster hardware circa 2007.
func DefaultConfig() Config {
	return Config{
		InitialOffsetStd: 2 * sim.Second,
		DriftPPMStd:      40,
	}
}

// New creates a clock with randomly drawn phase and frequency errors.
func New(k *sim.Kernel, cfg Config) *Clock {
	return &Clock{
		kernel:     k,
		offset:     sim.NormalSigned(k.Rand(), 0, cfg.InitialOffsetStd),
		driftPPM:   k.Rand().NormFloat64() * cfg.DriftPPMStd,
		adjustedAt: k.Now(),
	}
}

// errorAt computes host-minus-true at true time t.
func (c *Clock) errorAt(t sim.Time) sim.Time {
	elapsed := float64(t - c.adjustedAt)
	return c.offset + sim.Time(elapsed*c.driftPPM/1e6)
}

// Read returns the node's current host-clock reading.
func (c *Clock) Read() sim.Time {
	return c.kernel.Now() + c.errorAt(c.kernel.Now())
}

// Error returns the current host-minus-true error. Only tests call it:
// the clock tests and phys's NTP and topology tests.
func (c *Clock) Error() sim.Time { return c.errorAt(c.kernel.Now()) }

// adjust rewrites the clock's phase and frequency error, anchoring the
// error model at the current instant.
func (c *Clock) adjust(offset sim.Time, driftPPM float64) {
	c.offset = offset
	c.driftPPM = driftPPM
	c.adjustedAt = c.kernel.Now()
}

// TrueTimeForHostReading returns the true simulation time at which this
// clock will read hostTime. This is how a node-local scheduler ("sleep
// until the host clock says T") maps onto the event queue. Because drift
// is a few tens of ppm, one Newton step on the (affine) error model is
// exact.
func (c *Clock) TrueTimeForHostReading(hostTime sim.Time) sim.Time {
	// host(t) = t + offset + drift*(t - adjustedAt); solve host(t) = hostTime.
	f := 1 + c.driftPPM/1e6
	t := float64(hostTime-c.offset) + c.driftPPM/1e6*float64(c.adjustedAt)
	return sim.Time(t / f)
}

// NTPDaemon periodically disciplines a set of clocks against true time,
// leaving a small residual error — the "few milliseconds" the paper
// relies on. Synchronising against true time rather than a modelled
// server hierarchy is deliberate: what LSC cares about is the residual
// error distribution, which is an input parameter here, not an emergent.
type NTPDaemon struct {
	kernel *sim.Kernel
	cfg    NTPConfig
	clocks []*Clock
	timer  *sim.Timer // poll tick; rearmed in place each round
}

// NTPConfig tunes the discipline loop.
type NTPConfig struct {
	// PollInterval is how often the daemon steps/slews the clock.
	PollInterval sim.Time
	// ResidualStd is the standard deviation of the phase error remaining
	// immediately after a sync. Mills reports low-millisecond accuracy on
	// a LAN; 1–2 ms is typical for 2007-era clusters.
	ResidualStd sim.Time
	// DisciplineFactor scales down the frequency error at each sync,
	// modelling the PLL/FLL frequency correction. 1 = drift untouched,
	// 0 = drift eliminated after one sync.
	DisciplineFactor float64
}

// DefaultNTPConfig matches a LAN-synchronised 2007 cluster.
func DefaultNTPConfig() NTPConfig {
	return NTPConfig{
		PollInterval:     64 * sim.Second,
		ResidualStd:      1500 * sim.Microsecond,
		DisciplineFactor: 0.5,
	}
}

// NewNTPDaemon creates a daemon disciplining the given clocks. Call Start
// to begin the poll loop; the first sync happens immediately at Start.
func NewNTPDaemon(k *sim.Kernel, cfg NTPConfig, clocks ...*Clock) *NTPDaemon {
	return &NTPDaemon{kernel: k, cfg: cfg, clocks: clocks}
}

// Add registers another clock with the daemon.
func (d *NTPDaemon) Add(c *Clock) { d.clocks = append(d.clocks, c) }

// Start begins the poll loop with an immediate first sync.
func (d *NTPDaemon) Start() {
	if d.timer == nil {
		d.timer = sim.NewTimer(d.kernel, d.tick)
	}
	d.timer.Reset(0)
}

// SyncNow performs one synchronous discipline round outside the poll loop.
func (d *NTPDaemon) SyncNow() {
	for _, c := range d.clocks {
		residual := sim.NormalSigned(d.kernel.Rand(), 0, d.cfg.ResidualStd)
		c.adjust(residual, c.driftPPM*d.cfg.DisciplineFactor)
	}
}

func (d *NTPDaemon) tick() {
	d.SyncNow()
	d.timer.Reset(d.cfg.PollInterval)
}
