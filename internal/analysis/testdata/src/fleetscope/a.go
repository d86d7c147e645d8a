// Fixture for the fleetscope analyzer, built against the real
// dvc/internal/fleet and dvc/internal/sim types: worker closures must
// not capture kernel-reaching state from the enclosing scope, and the
// sanctioned shape — construct the whole world inside the per-trial
// closure — passes clean.
package fleetscope

import (
	"math/rand"

	"dvc/internal/fleet"
	"dvc/internal/sim"
	"dvc/internal/sim/partition"
)

// world reaches kernel state through a field; capturing it is as bad as
// capturing the kernel itself.
type world struct {
	K   *sim.Kernel
	RNG *rand.Rand
}

// config is plain configuration: capturing it is the sanctioned shape.
type config struct {
	Nodes int
	Seed  int64
}

func bad(k *sim.Kernel, w world, rng *rand.Rand) []int {
	return fleet.Map(4, 8, func(trial int) int {
		k.Step()        // want `captures "k"`
		_ = w.K         // want `captures "w"`
		_ = rng.Int63() // want `captures "rng"`
		return int(k.Now())
	})
}

func good(cfg config, seeds []int64) []int {
	return fleet.Map(4, len(seeds), func(trial int) int {
		k := sim.NewKernel(seeds[trial] + cfg.Seed)
		rng := k.Rand()
		_ = rng
		return cfg.Nodes + int(k.Now())
	})
}

type harness struct{ K *sim.Kernel }

func (h *harness) run(trial int) int { return trial }

func badMethodValue(h *harness) []int {
	return fleet.Map(2, 4, h.run) // want `method value h\.run .* reaches kernel state`
}

// badPartitionDriver: a driver closure handed to the partition
// coordinator runs on a partition goroutine and is held to exactly the
// fleet worker rule — no kernel-reaching state captured from outside.
func badPartitionDriver(c *partition.Coordinator, k *sim.Kernel) {
	c.Run(func(p *partition.Partition) {
		k.Step() // want `captures "k"`
	})
}

// goodPartitionDriver is the sanctioned shape: each driver builds its
// own sub-kernel from plain configuration and binds it to its partition.
func goodPartitionDriver(c *partition.Coordinator, seeds []int64) {
	c.Run(func(p *partition.Partition) {
		k := sim.NewKernel(seeds[p.ID()])
		p.Bind(k)
		k.Run()
	})
}

// notFleet proves the rule only applies at fleet entry points: the same
// capture passed to a local higher-order function is not flagged.
func notFleet(k *sim.Kernel) {
	apply := func(fn func(int) int) { fn(0) }
	apply(func(trial int) int {
		k.Step()
		return trial
	})
}
