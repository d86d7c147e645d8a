package core

import (
	"fmt"

	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/storage"
	"dvc/internal/vm"
)

// Env is one simulated DVC site: DVC installed over a physical site
// (the shared checkpoint store, the manager and an LSC coordinator), all
// on the site's kernel. The caller builds the site itself (clusters,
// topology, clocks, NTP), because that is what varies between runs; Env
// adds the parts every run shares.
type Env struct {
	Kernel  *sim.Kernel
	Site    *phys.Site
	Manager *Manager
	Coord   *Coordinator
}

// NewEnv installs DVC over site with the default store and Xen
// configurations and an lsc coordinator.
func NewEnv(site *phys.Site, lsc LSCConfig) *Env {
	k := site.Kernel
	mgr := NewManager(k, site, storage.New(k, storage.DefaultConfig()), vm.DefaultXenConfig())
	return &Env{Kernel: k, Site: site, Manager: mgr, Coord: NewCoordinator(mgr, lsc)}
}

// SetTracer attaches t to every layer (hypervisors, transport, fabric,
// store, LSC); nil leaves tracing off. Tracing schedules no kernel
// events, so a traced run fires exactly the events of an untraced one.
func (e *Env) SetTracer(t *obs.Tracer) { e.Manager.SetTracer(t) }

// await runs the kernel until done reports true or limit passes.
// Whatever can make done true must halt the kernel (a coordinator
// callback, a guest exit hook), so the wait stops at that exact instant
// instead of on a poll boundary. done runs before every pass, so it may
// also re-arm hooks.
func (e *Env) await(limit sim.Time, done func() bool) {
	deadline := e.Kernel.Now() + limit
	for !done() && e.Kernel.Now() < deadline {
		e.Kernel.RunUntil(deadline)
	}
}

// call issues op with a callback that records its result and halts the
// kernel, then awaits the result for up to limit. what names the
// operation in the error returned when the limit passes first.
func call[R any](e *Env, what string, limit sim.Time, op func(done func(*R)) error) (*R, error) {
	var res *R
	if err := op(func(r *R) { res = r; e.Kernel.Halt() }); err != nil {
		return nil, err
	}
	e.await(limit, func() bool { return res != nil })
	if res == nil {
		return nil, fmt.Errorf("core: %s never completed", what)
	}
	return res, nil
}

// Allocate places and boots a virtual cluster, running until it is
// ready.
func (e *Env) Allocate(spec VCSpec, limit sim.Time) (*VirtualCluster, error) {
	return call(e, "allocation of "+spec.Name, limit, func(done func(*VirtualCluster)) error {
		_, err := e.Manager.Allocate(spec, done)
		return err
	})
}

// Checkpoint takes one coordinated LSC checkpoint of vc, running until
// it reports.
func (e *Env) Checkpoint(vc *VirtualCluster, limit sim.Time) (*CheckpointResult, error) {
	return call(e, "checkpoint of "+vc.Name(), limit, func(done func(*CheckpointResult)) error {
		return e.Coord.Checkpoint(vc, done)
	})
}

// Migrate moves vc onto targets by checkpoint/restore, running until it
// reports.
func (e *Env) Migrate(vc *VirtualCluster, targets []*phys.Node, limit sim.Time) (*CheckpointResult, error) {
	return call(e, "migration of "+vc.Name(), limit, func(done func(*CheckpointResult)) error {
		return e.Coord.Migrate(vc, targets, done)
	})
}

// LiveMigrate moves vc onto targets with pre-copy, running until it
// reports.
func (e *Env) LiveMigrate(vc *VirtualCluster, targets []*phys.Node, limit sim.Time) (*LiveMigrationResult, error) {
	return call(e, "live migration of "+vc.Name(), limit, func(done func(*LiveMigrationResult)) error {
		return e.Coord.LiveMigrate(vc, targets, done)
	})
}

// Recover restores generation gen of vc onto targets, running until it
// reports.
func (e *Env) Recover(vc *VirtualCluster, gen int, targets []*phys.Node, limit sim.Time) (*RestoreResult, error) {
	return call(e, "recovery of "+vc.Name(), limit, func(done func(*RestoreResult)) error {
		e.Coord.RestoreVC(vc, gen, targets, done)
		return nil
	})
}

// RunUntilJobDone runs until vc's job has finished (every process
// exited, the VC ready) or limit passes, and returns the job's status.
// Every guest process exit halts the kernel, so the wait stops at the
// exact completion instant.
func (e *Env) RunUntilJobDone(vc *VirtualCluster, limit sim.Time) JobStatus {
	notify := func(fn func()) {
		for _, os := range vc.OSes() {
			if os != nil {
				os.SetExitNotify(fn)
			}
		}
	}
	defer notify(nil)
	e.await(limit, func() bool {
		if vc.JobStatus().Done() && vc.State() == VCReady {
			return true
		}
		// Re-arm each pass: a restore mid-wait replaces the guest OSes.
		notify(e.Kernel.Halt)
		return false
	})
	return vc.JobStatus()
}
