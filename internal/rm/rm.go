// Package rm is the Torque/Moab-style resource manager and scheduler DVC
// integrates with. It runs a job trace against a site under one of two
// backends:
//
//   - Physical: jobs run natively on nodes. A node crash kills the job;
//     the only recovery is requeueing from scratch.
//   - DVC: jobs run in per-job virtual clusters with periodic LSC
//     checkpoints. A node crash costs only the work since the last
//     checkpoint, and the job resumes on any healthy nodes — the paper's
//     §1 claim that DVC lets "resource management software continue to
//     schedule jobs in the presence of node faults".
package rm

import (
	"fmt"
	"slices"
	"sort"

	"dvc/internal/core"
	"dvc/internal/guest"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/tcp"
	"dvc/internal/vm"
	"dvc/internal/workload"
)

// Backend selects how jobs execute.
type Backend int

// Execution backends.
const (
	Physical Backend = iota
	DVC
)

func (b Backend) String() string {
	if b == Physical {
		return "physical"
	}
	return "dvc"
}

// JobState tracks a job through the queue.
type JobState int

// Job states.
const (
	Queued JobState = iota
	Starting
	Running
	Recovering
	Completed
	Failed
)

func (s JobState) String() string {
	switch s {
	case Queued:
		return "Queued"
	case Starting:
		return "Starting"
	case Running:
		return "Running"
	case Recovering:
		return "Recovering"
	case Completed:
		return "Completed"
	case Failed:
		return "Failed"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Config tunes the resource manager.
type Config struct {
	Backend Backend
	// CheckpointInterval enables periodic LSC checkpoints (DVC backend).
	CheckpointInterval sim.Time
	// RequeueOnFailure restarts failed jobs from scratch when no
	// checkpoint exists (or on the physical backend).
	RequeueOnFailure bool
	// MaxRequeues bounds restart loops.
	MaxRequeues int
}

const (
	// vmRAM sizes DVC guests.
	vmRAM = 256 << 20
	// tick is the scheduler's polling period.
	tick = sim.Second
)

// DefaultConfig returns a sensible RM setup for the given backend.
func DefaultConfig(b Backend) Config {
	return Config{
		Backend:            b,
		CheckpointInterval: 2 * sim.Minute,
		RequeueOnFailure:   true,
		MaxRequeues:        10,
	}
}

// Job is one tracked job.
type Job struct {
	Spec     workload.JobSpec
	State    JobState
	Attempt  int
	SubmitAt sim.Time
	StartAt  sim.Time // first start
	EndAt    sim.Time
	// WastedTime accumulates run time thrown away by failures (full
	// reruns on physical; work since last checkpoint on DVC).
	WastedTime sim.Time

	// Execution state.
	nodes []*phys.Node
	// physical backend
	oses      []*guest.OS
	teardowns []func() // one per OS, from vm.NativeOS
	pids      []guest.PID
	// dvc backend
	vc          *core.VirtualCluster
	periodic    *core.Periodic
	lastGoodGen int // -1 = no checkpoint yet
	lastCkptAt  sim.Time
	attemptAt   sim.Time // start of current attempt
	claimedAt   sim.Time // when the current node claim began
	recovering  bool
}

// WaitTime is submission-to-first-start.
func (j *Job) WaitTime() sim.Time { return j.StartAt - j.SubmitAt }

// RM is the resource manager.
type RM struct {
	kernel *sim.Kernel
	site   *phys.Site
	mgr    *core.Manager // nil on the physical backend
	coord  *core.Coordinator
	cfg    Config

	queue         []*Job
	running       []*Job
	done          []*Job
	notYetArrived int
	busyNodeTime  sim.Time // accumulated node-seconds of claimed time

	// claimedBy maps a node's dense site index to the job claiming it
	// (nil = unclaimed). freeNodes grows it as the site grows.
	claimedBy []*Job

	tickTimer *sim.Timer // scheduler tick; rearmed in place each pass
}

// New creates a resource manager. mgr and coord may be nil for the
// physical backend.
func New(k *sim.Kernel, site *phys.Site, mgr *core.Manager, coord *core.Coordinator, cfg Config) *RM {
	if cfg.Backend == DVC && (mgr == nil || coord == nil) {
		panic("rm: DVC backend requires a core.Manager and Coordinator")
	}
	return &RM{
		kernel: k,
		site:   site,
		mgr:    mgr,
		coord:  coord,
		cfg:    cfg,
	}
}

// Start begins the scheduler loop.
func (r *RM) Start() {
	if r.tickTimer == nil {
		r.tickTimer = sim.NewTimer(r.kernel, r.tick)
	}
	r.tickTimer.Reset(tick)
}

// SubmitTrace schedules a whole trace for submission at each job's
// arrival time. Jobs not yet arrived count against AllDone.
func (r *RM) SubmitTrace(trace []workload.JobSpec) {
	for _, spec := range trace {
		spec := spec
		r.notYetArrived++
		r.kernel.At(spec.Arrival, func() {
			r.notYetArrived--
			r.Submit(spec)
		})
	}
}

// Submit enqueues one job now.
func (r *RM) Submit(spec workload.JobSpec) {
	j := &Job{Spec: spec, State: Queued, SubmitAt: r.kernel.Now(), lastGoodGen: -1}
	r.queue = append(r.queue, j)
}

// Jobs returns every job the RM has seen (done + running + queued).
func (r *RM) Jobs() []*Job {
	out := append([]*Job(nil), r.done...)
	out = append(out, r.running...)
	out = append(out, r.queue...)
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.ID < out[j].Spec.ID })
	return out
}

// AllDone reports whether every submitted (and trace-scheduled) job has
// finished.
func (r *RM) AllDone() bool {
	return r.notYetArrived == 0 && len(r.queue) == 0 && len(r.running) == 0
}

// Stats summarises completed work.
type Stats struct {
	Completed, Failed int
	Makespan          sim.Time
	TotalWaited       sim.Time
	TotalWasted       sim.Time
	// BusyNodeTime is node-seconds spent claimed by jobs (including
	// currently running claims up to now).
	BusyNodeTime sim.Time
}

// Utilization reports claimed node-time as a fraction of capacity over
// the elapsed window.
func (s Stats) Utilization(totalNodes int, elapsed sim.Time) float64 {
	if totalNodes <= 0 || elapsed <= 0 {
		return 0
	}
	return s.BusyNodeTime.Seconds() / (float64(totalNodes) * elapsed.Seconds())
}

// Stats computes summary statistics over finished jobs.
func (r *RM) Stats() Stats {
	var s Stats
	for _, j := range r.done {
		switch j.State {
		case Completed:
			s.Completed++
			if j.EndAt > s.Makespan {
				s.Makespan = j.EndAt
			}
		case Failed:
			s.Failed++
		}
		s.TotalWaited += j.WaitTime()
		s.TotalWasted += j.WastedTime
	}
	s.BusyNodeTime = r.busyNodeTime
	for _, j := range r.running {
		if len(j.nodes) > 0 {
			s.BusyNodeTime += (r.kernel.Now() - j.claimedAt) * sim.Time(len(j.nodes))
		}
	}
	return s
}

// freeNodes returns up to max up, unclaimed nodes in site order (by ID).
func (r *RM) freeNodes(max int) []*phys.Node {
	if n := r.site.NodeCount(); len(r.claimedBy) < n {
		r.claimedBy = append(r.claimedBy, make([]*Job, n-len(r.claimedBy))...)
	}
	var out []*phys.Node
	for _, n := range r.site.Nodes() {
		if len(out) == max {
			break
		}
		if n.Up() && r.claimedBy[n.Index()] == nil {
			out = append(out, n)
		}
	}
	return out
}

// usable filters free nodes by a job's software-stack requirement. On
// the physical backend a job can only run on nodes whose installed stack
// matches; under DVC the virtual cluster brings its own stack (paper
// goals 1-2), so every node qualifies.
func (r *RM) usable(free []*phys.Node, j *Job) []*phys.Node {
	if r.cfg.Backend == DVC || j.Spec.Stack == "" {
		return free
	}
	var out []*phys.Node
	for _, n := range free {
		if n.Stack() == j.Spec.Stack {
			out = append(out, n)
		}
	}
	return out
}

// tick is the scheduler loop: reap finished/failed jobs, then start
// queued jobs greedily in submission order (first-fit backfill).
func (r *RM) tick() {
	r.reap()
	r.schedule()
	r.tickTimer.Reset(tick)
}

// schedule starts queued jobs on one snapshot of the free nodes. Each
// started job's nodes leave the snapshot, so a pick whose start fails is
// not reused in the same pass.
func (r *RM) schedule() {
	if len(r.queue) == 0 {
		return
	}
	free := r.freeNodes(r.site.NodeCount())
	var stillQueued []*Job
	for _, j := range r.queue {
		avail := r.usable(free, j)
		if j.Spec.Width > len(avail) {
			stillQueued = append(stillQueued, j)
			continue
		}
		sel := slices.Clone(avail[:j.Spec.Width])
		free = slices.DeleteFunc(free, func(n *phys.Node) bool { return slices.Contains(sel, n) })
		r.start(j, sel)
	}
	r.queue = stillQueued
}

func (r *RM) claim(j *Job, nodes []*phys.Node) {
	j.nodes = nodes
	j.claimedAt = r.kernel.Now()
	for _, n := range nodes {
		r.claimedBy[n.Index()] = j
	}
}

func (r *RM) unclaim(j *Job) {
	r.busyNodeTime += (r.kernel.Now() - j.claimedAt) * sim.Time(len(j.nodes))
	for _, n := range j.nodes {
		if r.claimedBy[n.Index()] == j {
			r.claimedBy[n.Index()] = nil
		}
	}
	j.nodes = nil
}

func (r *RM) start(j *Job, nodes []*phys.Node) {
	j.Attempt++
	j.State = Starting
	j.attemptAt = r.kernel.Now()
	if j.StartAt == 0 && j.Attempt == 1 {
		j.StartAt = r.kernel.Now()
	}
	r.claim(j, nodes)
	r.running = append(r.running, j)
	if r.cfg.Backend == Physical {
		r.startPhysical(j)
	} else {
		r.startDVC(j)
	}
}

// startPhysical boots native OSes and launches the MPI app directly.
func (r *RM) startPhysical(j *Job) {
	addrs := make([]netsim.Addr, j.Spec.Width)
	j.oses = make([]*guest.OS, j.Spec.Width)
	j.teardowns = make([]func(), j.Spec.Width)
	for i, n := range j.nodes {
		addrs[i] = netsim.Addr(fmt.Sprintf("%s-a%d-r%d", j.Spec.ID, j.Attempt, i))
		j.oses[i], j.teardowns[i] = vm.NativeOS(r.kernel, r.site.Fabric, n, addrs[i], tcp.DefaultConfig(), guest.WatchdogConfig{})
	}
	j.pids = mpi.Launch(j.oses, 7000, func(int) mpi.App { return workload.NewBSPApp(j.Spec.Work) })
	j.State = Running
}

// startDVC allocates a virtual cluster and launches the app inside it.
func (r *RM) startDVC(j *Job) {
	vcName := fmt.Sprintf("%s-a%d", j.Spec.ID, j.Attempt)
	vc, err := r.mgr.AllocateOn(core.VCSpec{
		Name:  vcName,
		Nodes: j.Spec.Width,
		VMRAM: vmRAM,
	}, j.nodes, func(vc *core.VirtualCluster) {
		if _, err := vc.LaunchMPI(7000, func(int) mpi.App { return workload.NewBSPApp(j.Spec.Work) }); err != nil {
			return
		}
		j.State = Running
		r.startPeriodicFor(j)
	})
	if err != nil {
		// Allocation raced with a failure; requeue.
		r.unclaim(j)
		r.finishAttempt(j)
		return
	}
	j.vc = vc
}

// reap checks running jobs for completion or failure.
func (r *RM) reap() {
	var still []*Job
	for _, j := range r.running {
		switch r.cfg.Backend {
		case Physical:
			r.reapPhysical(j)
		case DVC:
			r.reapDVC(j)
		}
		if j.State == Running || j.State == Starting || j.State == Recovering {
			still = append(still, j)
		}
	}
	r.running = still
}

func (r *RM) reapPhysical(j *Job) {
	if j.State != Running {
		return
	}
	allExited, anyFailed := true, false
	for i, o := range j.oses {
		p, _ := o.Proc(j.pids[i])
		if !p.Exited() {
			allExited = false
		} else if p.ExitCode() != 0 {
			anyFailed = true
		}
	}
	// A crashed node freezes its OS: ranks never exit, peers fail.
	for _, n := range j.nodes {
		if !n.Up() {
			anyFailed = true
		}
	}
	if anyFailed {
		j.WastedTime += r.kernel.Now() - j.attemptAt
		r.teardownPhysical(j)
		r.unclaim(j)
		r.finishAttempt(j)
		return
	}
	if allExited {
		r.teardownPhysical(j)
		j.State = Completed
		j.EndAt = r.kernel.Now()
		r.unclaim(j)
		r.done = append(r.done, j)
	}
}

func (r *RM) teardownPhysical(j *Job) {
	for _, teardown := range j.teardowns {
		teardown()
	}
	j.oses, j.teardowns, j.pids = nil, nil, nil
}

// startPeriodicFor arms periodic checkpointing for a running DVC job. A
// failed checkpoint (e.g. a node died mid-cycle) fails the attempt.
func (r *RM) startPeriodicFor(j *Job) {
	if r.cfg.CheckpointInterval <= 0 {
		return
	}
	j.periodic = r.coord.StartPeriodic(j.vc, r.cfg.CheckpointInterval, func(res *core.CheckpointResult) {
		if res.OK {
			j.lastGoodGen = res.Generation
			j.lastCkptAt = r.kernel.Now()
			return
		}
		if j.State == Running {
			r.failDVC(j)
		}
	})
}

// failDVC handles a failed DVC attempt: recover from the last checkpoint
// if one exists, otherwise requeue from scratch.
func (r *RM) failDVC(j *Job) {
	if j.periodic != nil {
		j.periodic.Stop()
		j.periodic = nil
	}
	if j.lastGoodGen >= 0 {
		j.WastedTime += r.kernel.Now() - j.lastCkptAt
		j.vc.Teardown()
		r.unclaim(j)
		j.State = Recovering
		r.tryRecover(j)
		return
	}
	j.WastedTime += r.kernel.Now() - j.attemptAt
	j.vc.Release()
	j.vc = nil
	r.unclaim(j)
	r.finishAttempt(j)
}

func (r *RM) reapDVC(j *Job) {
	if j.State == Recovering {
		r.tryRecover(j)
		return
	}
	if j.State == Starting {
		// A node died while the VC was booting: the VC can never become
		// ready; requeue from scratch.
		for _, n := range j.nodes {
			if !n.Up() {
				if j.vc != nil {
					j.vc.Release()
					j.vc = nil
				}
				r.unclaim(j)
				r.finishAttempt(j)
				return
			}
		}
		return
	}
	if j.State != Running || j.vc == nil {
		return
	}
	// Node crash under the VC?
	crashed := false
	for _, n := range j.nodes {
		if !n.Up() {
			crashed = true
			break
		}
	}
	if j.vc.State() == core.VCReady && !crashed {
		js := j.vc.JobStatus()
		if js.Done() {
			if j.periodic != nil {
				j.periodic.Stop()
				j.periodic = nil
			}
			ok := js.AllOK()
			j.vc.Release()
			j.vc = nil
			r.unclaim(j)
			if ok {
				j.State = Completed
				j.EndAt = r.kernel.Now()
				r.done = append(r.done, j)
			} else {
				j.WastedTime += r.kernel.Now() - j.attemptAt
				r.finishAttempt(j)
			}
		}
		return
	}
	if crashed && j.vc.State() == core.VCReady {
		// Failure with the VC otherwise quiescent: recover or requeue.
		// (A crash mid-checkpoint is handled by the periodic callback
		// when the failed cycle reports.)
		r.failDVC(j)
	}
}

// tryRecover restores the VC's last checkpoint onto free nodes.
func (r *RM) tryRecover(j *Job) {
	if j.recovering {
		return
	}
	free := r.freeNodes(j.Spec.Width)
	if len(free) < j.Spec.Width {
		return // wait for capacity
	}
	r.claim(j, free)
	j.recovering = true
	r.coord.RestoreVC(j.vc, j.lastGoodGen, j.nodes, func(res *core.RestoreResult) {
		j.recovering = false
		if !res.OK {
			r.unclaim(j)
			j.vc.Release()
			j.vc = nil
			r.finishAttempt(j)
			return
		}
		j.State = Running
		j.attemptAt = r.kernel.Now()
		r.startPeriodicFor(j)
	})
}

// finishAttempt handles a failed attempt: requeue or give up.
func (r *RM) finishAttempt(j *Job) {
	if r.cfg.RequeueOnFailure && j.Attempt <= r.cfg.MaxRequeues {
		j.State = Queued
		j.lastGoodGen = -1
		r.queue = append(r.queue, j)
		return
	}
	j.State = Failed
	j.EndAt = r.kernel.Now()
	r.done = append(r.done, j)
}
