package dvc

import (
	"math/rand"

	"dvc/internal/rm"
	"dvc/internal/workload"
)

// Resource-manager surface: the Torque/Moab-style batch layer the paper
// integrates DVC with. A ResourceManager runs job mixes, generated in
// process by GenerateTrace or GenerateTraceSeeded, against the
// simulation's site, either natively (jobs die with their nodes and are
// locked to matching software stacks) or on DVC virtual clusters with
// periodic LSC checkpoints.

// Aliases for the resource-manager types.
type (
	// RMConfig tunes the resource manager.
	RMConfig = rm.Config
	// RMStats summarises completed work.
	RMStats = rm.Stats
	// Job is one tracked resource-manager job.
	Job = rm.Job
	// MixConfig tunes the synthetic job-mix generator.
	MixConfig = workload.MixConfig
)

// Backend selection for the resource manager.
const (
	// PhysicalBackend runs jobs natively on nodes.
	PhysicalBackend = rm.Physical
	// DVCBackend runs jobs in per-job virtual clusters.
	DVCBackend = rm.DVC
)

// ResourceManager wraps rm.RM with the simulation it runs in.
type ResourceManager struct {
	*rm.RM
	sim *Simulation
}

// NewResourceManager installs a resource manager over the simulation's
// site and starts its scheduling loop. The DVC backend uses the
// simulation's manager and current LSC coordinator.
func (s *Simulation) NewResourceManager(cfg RMConfig) *ResourceManager {
	var r *rm.RM
	if cfg.Backend == rm.DVC {
		r = rm.New(s.env.Kernel, s.env.Site, s.env.Manager, s.env.Coord, cfg)
	} else {
		r = rm.New(s.env.Kernel, s.env.Site, nil, nil, cfg)
	}
	r.Start()
	return &ResourceManager{RM: r, sim: s}
}

// DefaultRMConfig returns a sensible configuration for the backend.
func DefaultRMConfig(backend rm.Backend) RMConfig { return rm.DefaultConfig(backend) }

// RunUntilAllDone advances the simulation until the RM has finished every
// submitted job (or limit elapses), returning the final statistics.
func (r *ResourceManager) RunUntilAllDone(limit Time) RMStats {
	deadline := r.sim.env.Kernel.Now() + limit
	for r.sim.env.Kernel.Now() < deadline && !r.AllDone() {
		r.sim.env.Kernel.RunFor(10 * Second)
	}
	return r.Stats()
}

// GenerateTrace draws a synthetic job mix using the simulation's
// deterministic random source.
func (s *Simulation) GenerateTrace(cfg MixConfig) []JobSpec {
	return workload.Generate(s.env.Kernel.Rand(), cfg)
}

// GenerateTraceSeeded draws a job mix from an independent seed (so the
// same trace can be replayed across simulations).
func GenerateTraceSeeded(seed int64, cfg MixConfig) []JobSpec {
	return workload.Generate(rand.New(rand.NewSource(seed)), cfg)
}
