package obs

import (
	"dvc/internal/sim"
)

// KernelProbe periodically samples the simulation kernel — events fired
// so far and current queue depth — into counter tracks and registry
// gauges. The probe schedules ordinary kernel events, so its samples are
// part of the deterministic schedule: two traced runs sample at the same
// instants and record the same values.
type KernelProbe struct {
	k     *sim.Kernel
	t     *Tracer
	every sim.Time
	timer *sim.Timer
}

// StartKernelProbe begins sampling k into t every interval. A nil tracer
// (or non-positive interval) returns a nil probe — the disabled probe
// schedules nothing, so an untraced run's event schedule is untouched.
func StartKernelProbe(k *sim.Kernel, t *Tracer, every sim.Time) *KernelProbe {
	if t == nil || every <= 0 {
		return nil
	}
	p := &KernelProbe{k: k, t: t, every: every}
	p.timer = sim.NewTimer(k, p.sample)
	p.sample() // an immediate t=now sample, then one per interval
	return p
}

func (p *KernelProbe) sample() {
	now := p.k.Now()
	fired := float64(p.k.Fired())
	depth := float64(p.k.Pending())
	p.t.Counter(now, EvSimProbe, "", "", "sim.events_fired", fired)
	p.t.Counter(now, EvSimProbe, "", "", "sim.queue_depth", depth)
	p.t.Gauge("sim.events_fired", fired)
	p.t.Gauge("sim.queue_depth", depth)
	p.t.Observe("sim.queue_depth_samples", depth)
	p.t.SampleSeries(now)
	p.timer.Reset(p.every)
}
