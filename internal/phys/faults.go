package phys

import (
	"dvc/internal/sim"
)

// InjectorConfig tunes random fault injection.
type InjectorConfig struct {
	// MTBF is each node's mean time between failures (exponential).
	MTBF sim.Time
	// RepairTime is the mean time to bring a crashed node back
	// (exponential). Zero means nodes stay down.
	RepairTime sim.Time
}

// Injector drives random node failures.
type Injector struct {
	kernel *sim.Kernel
	cfg    InjectorConfig

	// OnCrash fires when a node fails (after the node's own callbacks).
	OnCrash func(*Node)

	crashes int
	stopped bool
}

// NewInjector creates an injector on the kernel.
func NewInjector(k *sim.Kernel, cfg InjectorConfig) *Injector {
	return &Injector{kernel: k, cfg: cfg}
}

// Crashes reports how many node failures have been injected.
func (in *Injector) Crashes() int { return in.crashes }

// Stop halts future injections (already-scheduled events become no-ops).
func (in *Injector) Stop() { in.stopped = true }

// Start schedules the first failure for each node.
func (in *Injector) Start(nodes []*Node) {
	for _, n := range nodes {
		in.scheduleNext(n)
	}
}

func (in *Injector) scheduleNext(n *Node) {
	if in.cfg.MTBF <= 0 {
		return
	}
	wait := sim.Exp(in.kernel.Rand(), in.cfg.MTBF)
	in.kernel.After(wait, func() { in.crash(n) })
}

func (in *Injector) crash(n *Node) {
	if in.stopped || !n.Up() {
		return
	}
	in.crashes++
	n.Fail()
	if in.OnCrash != nil {
		in.OnCrash(n)
	}
	if in.cfg.RepairTime > 0 {
		wait := sim.Exp(in.kernel.Rand(), in.cfg.RepairTime)
		in.kernel.After(wait, func() {
			n.Repair()
			in.scheduleNext(n)
		})
	}
}
