// Package dvc is a discrete-event-simulated reproduction of Dynamic
// Virtual Clustering (Emeneker & Stanzione, "Increasing Reliability
// through Dynamic Virtual Clustering", 2007): per-job virtual clusters of
// Xen-like VMs over physical clusters, with Lazy Synchronous
// Checkpointing (LSC) — completely transparent parallel
// checkpoint/migrate/restart for unmodified MPI applications.
//
// The package is a facade over the building blocks in internal/:
//
//   - a deterministic event kernel (virtual time, seeded randomness),
//   - physical clusters with failing nodes, hardware clocks and NTP,
//   - a network fabric and a TCP implementation whose retransmission
//     state freezes and travels with VM images,
//   - a Xen-like hypervisor with pause/save/restore/migrate,
//   - an MPI runtime and the HPCC workloads (HPL, PTRANS) implemented as
//     checkpointable state machines and verified numerically,
//   - the DVC manager + LSC coordinator (naive, NTP-scheduled and
//     health-checked variants), and a Torque/Moab-style resource
//     manager, which experiments E8, E9 and E15 drive.
//
// # Quick start
//
//	s := dvc.NewSimulation(42)
//	s.AddCluster("alpha", 8)
//	s.Start()
//	vc := s.MustAllocate(dvc.VCSpec{Name: "job1", Nodes: 4, VMRAM: 256 << 20})
//	vc.LaunchMPI(6000, func(rank int) dvc.App { return dvc.NewHPL(128, 7, 10) })
//	s.RunFor(2 * dvc.Second)
//	res := s.MustCheckpoint(vc)        // transparent parallel checkpoint
//	s.RunUntilJobDone(vc, dvc.Hour)    // job resumes and completes
//
// Every quantitative claim from the paper can be regenerated through
// RunExperiment (ids E1–E15 plus ablations A1–A2; see EXPERIMENTS.md),
// and every operator scenario (checkpoint, crash recovery, migration,
// live migration, cluster spanning) is a dvcctl script in
// internal/script/scenarios, run through this facade.
package dvc

import (
	"fmt"
	"io"

	"dvc/internal/clock"
	"dvc/internal/core"
	"dvc/internal/experiments"
	"dvc/internal/guest"
	"dvc/internal/hpcc"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/tcp"
	"dvc/internal/vm"
)

// Re-exported simulation time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Core type aliases: these are the stable public names for the library's
// main concepts.
type (
	// Time is virtual simulation time in nanoseconds.
	Time = sim.Time
	// VCSpec describes a virtual cluster request.
	VCSpec = core.VCSpec
	// VirtualCluster is a per-job cluster of virtual machines.
	VirtualCluster = core.VirtualCluster
	// JobStatus summarises the processes of a VC's job.
	JobStatus = core.JobStatus
	// LSCConfig tunes the Lazy Synchronous Checkpointing coordinator.
	LSCConfig = core.LSCConfig
	// CheckpointResult reports one coordinated checkpoint.
	CheckpointResult = core.CheckpointResult
	// RestoreResult reports one coordinated restore.
	RestoreResult = core.RestoreResult
	// LiveMigrationResult reports a pre-copy migration.
	LiveMigrationResult = core.LiveMigrationResult
	// Node is one physical machine.
	Node = phys.Node
	// App is an MPI application (a resumable state machine).
	App = mpi.App
	// Ctx is the per-step context handed to an App.
	Ctx = mpi.Ctx
	// Op is one MPI operation.
	Op = mpi.Op
	// WatchdogConfig tunes the guest software watchdog.
	WatchdogConfig = guest.WatchdogConfig
	// Image is a saved whole-VM checkpoint.
	Image = vm.Image
	// ExperimentOptions configures a paper-experiment run: only what the
	// run computes (seed, trial count, paper scale), plus where tables
	// and the trace go. Independent trials fan out across GOMAXPROCS
	// workers, and output is identical at any pool size.
	ExperimentOptions = experiments.Options
	// ExperimentResult is a paper-experiment outcome with shape checks.
	ExperimentResult = experiments.Result
	// Tracer records a deterministic event/span trace (internal/obs).
	Tracer = obs.Tracer
)

// Workload constructors re-exported for applications.
var (
	// NewHPL builds the High-Performance Linpack workload (verified LU).
	NewHPL = hpcc.NewHPL
	// NewPTRANS builds the parallel transpose workload (verified).
	NewPTRANS = hpcc.NewPTRANS
	// NewHalo builds the ring halo-exchange kernel.
	NewHalo = hpcc.NewHalo
	// NewPingPong builds the latency/bandwidth microbenchmark.
	NewPingPong = hpcc.NewPingPong
	// NewSeqJob builds a single-node compute job (a guest.Program).
	NewSeqJob = hpcc.NewSeqJob
	// NewRandomAccess builds the GUPS fine-grained-update kernel.
	NewRandomAccess = hpcc.NewRandomAccess
	// DefaultWatchdog is the paper's guest watchdog configuration.
	DefaultWatchdog = guest.DefaultWatchdog
	// NaiveLSC is the paper's unreliable first coordinator (§3.1).
	NaiveLSC = core.DefaultNaiveLSC
	// NTPLSC is the working NTP-scheduled coordinator (§3.1-3.2).
	NTPLSC = core.DefaultNTPLSC
)

// NewTracer creates an event/span recorder for SetTracer or
// ExperimentOptions.Tracer that streams the trace to w as JSONL. Call
// its Flush after the run; dvctrace reads the result.
func NewTracer(w io.Writer) *Tracer {
	return obs.NewTracerWithSink(obs.NewJSONLSink(w, 0))
}

// Simulation bundles a complete DVC environment: event kernel, physical
// site, shared checkpoint store, DVC manager and LSC coordinator.
type Simulation struct {
	env     *core.Env
	started bool
}

// NewSimulation creates an environment seeded for reproducibility, with
// the NTP-scheduled LSC coordinator.
func NewSimulation(seed int64) *Simulation {
	site := phys.NewSite(sim.NewKernel(seed), clock.DefaultConfig(), clock.DefaultNTPConfig())
	return &Simulation{env: core.NewEnv(site, core.DefaultNTPLSC())}
}

// SetLSC replaces the checkpoint coordinator configuration (e.g. with
// NaiveLSC() to reproduce the paper's failure mode).
func (s *Simulation) SetLSC(cfg LSCConfig) {
	s.env.Coord = core.NewCoordinator(s.env.Manager, cfg)
}

// AddCluster creates a physical cluster of n gigabit-Ethernet nodes.
// Call before Start.
func (s *Simulation) AddCluster(name string, n int) []*Node {
	nodes := s.env.Site.AddCluster(name, n, phys.DefaultSpec(), netsim.EthernetGigE())
	s.env.Manager.AdoptNodes()
	return nodes
}

// Start begins background services (NTP clock discipline). Clusters must
// exist first.
func (s *Simulation) Start() {
	if !s.started {
		s.env.Site.NTP.Start()
		s.started = true
	}
}

// SetTracer attaches a deterministic event tracer to every layer of the
// simulation (hypervisors, transport, fabric, LSC). Call before Start;
// pass nil to leave tracing off (the default — untraced hot paths pay
// only a nil check). Tracing schedules no kernel events, so a traced
// run fires exactly the events of an untraced one.
func (s *Simulation) SetTracer(t *Tracer) { s.env.SetTracer(t) }

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.env.Kernel.Now() }

// RunFor advances the simulation by d.
func (s *Simulation) RunFor(d Time) { s.env.Kernel.RunFor(d) }

// Manager exposes the DVC control plane for advanced use.
func (s *Simulation) Manager() *core.Manager { return s.env.Manager }

// Site exposes the physical site (nodes, clocks, fault injection).
func (s *Simulation) Site() *phys.Site { return s.env.Site }

// Allocate places and boots a virtual cluster, running the simulation
// until it is ready.
func (s *Simulation) Allocate(spec VCSpec) (*VirtualCluster, error) {
	return s.env.Allocate(spec, 10*Minute)
}

// MustAllocate is Allocate, panicking on error (for examples and tests).
func (s *Simulation) MustAllocate(spec VCSpec) *VirtualCluster {
	vc, err := s.Allocate(spec)
	if err != nil {
		panic(err)
	}
	return vc
}

// Checkpoint takes one coordinated LSC checkpoint of the VC, running the
// simulation until it completes.
func (s *Simulation) Checkpoint(vc *VirtualCluster) (*CheckpointResult, error) {
	return s.env.Checkpoint(vc, Hour)
}

// MustCheckpoint is Checkpoint, panicking on error or failed checkpoint.
func (s *Simulation) MustCheckpoint(vc *VirtualCluster) *CheckpointResult {
	res, err := s.Checkpoint(vc)
	if err != nil {
		panic(err)
	}
	if !res.OK {
		panic(fmt.Sprintf("dvc: checkpoint failed: %s", res.Reason))
	}
	return res
}

// Migrate moves a running VC onto targets via checkpoint/restore, running
// the simulation until it completes.
func (s *Simulation) Migrate(vc *VirtualCluster, targets []*Node) (*CheckpointResult, error) {
	return s.env.Migrate(vc, targets, Hour)
}

// LiveMigrate moves a running VC onto targets with pre-copy: memory
// streams while the cluster computes, and only the final residual copy
// happens inside the coordinated pause. Downtime is typically a small
// fraction of Migrate's stop-and-copy.
func (s *Simulation) LiveMigrate(vc *VirtualCluster, targets []*Node) (*LiveMigrationResult, error) {
	return s.env.LiveMigrate(vc, targets, Hour)
}

// Recover restores a VC's saved generation onto fresh nodes after its
// domains were destroyed (e.g. by a node crash). Call vc.Teardown first
// if remnants are still running.
func (s *Simulation) Recover(vc *VirtualCluster, generation int, targets []*Node) (*RestoreResult, error) {
	return s.env.Recover(vc, generation, targets, Hour)
}

// CheckpointGenerations lists the stored checkpoint generations of a VC
// (the image catalog — the paper's "image management capability to track
// the correct staging and restart of images").
func (s *Simulation) CheckpointGenerations(vc *VirtualCluster) []int {
	return s.env.Coord.Generations(vc.Name())
}

// PruneCheckpoints deletes stored generations beyond the newest keep.
// Every generation is self-contained, so the kept ones still restore.
// It returns the number of image objects removed.
func (s *Simulation) PruneCheckpoints(vc *VirtualCluster, keep int) int {
	return s.env.Coord.PruneGenerations(vc.Name(), keep)
}

// RunUntilJobDone advances the simulation until the VC's job finishes
// (all processes exited) or limit elapses, returning the final status.
// The wait is event-driven: every guest process exit halts the kernel,
// so the simulation stops at the exact completion instant instead of
// the next one-second poll boundary.
func (s *Simulation) RunUntilJobDone(vc *VirtualCluster, limit Time) JobStatus {
	return s.env.RunUntilJobDone(vc, limit)
}

// FreeNodes returns healthy nodes of a cluster (all clusters if name is
// empty) that are not hosting any domain.
func (s *Simulation) FreeNodes(cluster string) []*Node {
	var out []*Node
	for _, n := range s.env.Site.UpNodes(cluster) {
		if h, ok := s.env.Manager.Hypervisor(n.ID()); ok && len(h.Domains()) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// TCPRetryBudget reports the transport's retry budget — the save-skew
// ceiling LSC must respect.
func TCPRetryBudget() Time {
	cfg := tcp.DefaultConfig()
	return cfg.RetryBudget(cfg.InitialRTO)
}

// RunExperiment regenerates one of the paper's tables/figures (E1–E15,
// A1–A2).
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(id, opts)
}

// RunAllExperiments regenerates every table/figure in id order.
func RunAllExperiments(opts ExperimentOptions) ([]*ExperimentResult, error) {
	return experiments.RunAll(opts)
}

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitle returns an experiment's one-line description.
func ExperimentTitle(id string) string { return experiments.Title(id) }

// WriteBanner prints the library banner used by the command-line tools.
func WriteBanner(w io.Writer) {
	fmt.Fprintln(w, "dvc: Dynamic Virtual Clustering reproduction (Emeneker & Stanzione, 2007)")
}
