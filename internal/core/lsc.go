package core

import (
	"fmt"
	"slices"

	"dvc/internal/guest"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/tcp"
	"dvc/internal/vm"
)

// LSCMode selects the coordination strategy for Lazy Synchronous
// Checkpointing.
type LSCMode int

// Coordination strategies.
const (
	// LSCNaive is the paper's first implementation (§3.1): terminal
	// connections to every node, "vm save" written to each in turn. The
	// serial dispatch plus remote-shell jitter produces save skew that
	// grows with node count; once it exceeds the TCP retry budget the
	// application dies. "Unreliable at best."
	LSCNaive LSCMode = iota
	// LSCNTP is the working prototype (§3.1): every node arms a local
	// timer for the same host-clock instant; NTP bounds the skew to
	// milliseconds.
	LSCNTP
)

func (m LSCMode) String() string {
	if m == LSCNaive {
		return "naive"
	}
	return "ntp"
}

// LSCConfig tunes the coordinator.
type LSCConfig struct {
	Mode LSCMode

	// Naive mode: serial per-node cost of pushing the command down each
	// terminal connection, plus a heavy-tailed remote execution latency
	// (lognormal with the given median and sigma).
	DispatchWriteCost sim.Time
	ExecJitterMedian  sim.Time
	ExecJitterSigma   float64

	// NTP mode: how far in the future the common save instant is
	// scheduled, and the local timer's firing jitter (lognormal).
	ScheduleLead     sim.Time
	TimerJitterMed   sim.Time
	TimerJitterSigma float64

	// SleeperFailProb is the per-VM probability that the node-local
	// checkpoint process dies or hangs before the save instant — the
	// §3.1 caveat: "it does not check neighboring processes to make
	// certain that the sleeping checkpoint process is still executing".
	SleeperFailProb float64
	// HealthCheck enables the paper's proposed fix (§4): a coordinated
	// health check of checkpoint processes before the save instant, with
	// up to HealthRetries whole-attempt retries.
	HealthCheck   bool
	HealthRetries int

	// ContinueAfterSave selects checkpoint-and-continue (unpause after
	// capture) instead of the Xen-2007 save/restore cycle (domain is
	// destroyed by the save and restored from the image).
	ContinueAfterSave bool

	// Delta switches every generation to delta epochs (vm.Image.Delta,
	// pinned in the store's chunk pool by storage.Write): each epoch is
	// self-contained — restores stage exactly one image — and the store
	// transfers only chunks it has not seen, so steady-state epochs cost
	// the dirtied chunks plus manifest metadata. (Extension; see
	// experiment E14.)
	Delta bool
}

// DefaultNaiveLSC returns the naive coordinator's calibration. The write
// cost and jitter were calibrated so the failure curve matches §3.1:
// reliable through 8 nodes, ~50% failures at 10, ~90% at 12. Note the
// effective tolerance is about *half* the 6.2 s TCP retry budget, because
// the serial dispatch skews both the save and the subsequent restore and
// retry counters persist across the cycle.
func DefaultNaiveLSC() LSCConfig {
	return LSCConfig{
		Mode:              LSCNaive,
		DispatchWriteCost: 320 * sim.Millisecond,
		ExecJitterMedian:  200 * sim.Millisecond,
		ExecJitterSigma:   1.0,
	}
}

// DefaultNTPLSC returns the NTP coordinator's calibration: a scheduled
// instant 2 s out and sub-millisecond local timer jitter.
func DefaultNTPLSC() LSCConfig {
	return LSCConfig{
		Mode:             LSCNTP,
		ScheduleLead:     2 * sim.Second,
		TimerJitterMed:   300 * sim.Microsecond,
		TimerJitterSigma: 0.8,
	}
}

// CheckpointResult reports one coordinated checkpoint attempt.
type CheckpointResult struct {
	VC         string
	Generation int
	OK         bool
	Reason     string

	Images     []*vm.Image
	Attempts   int      // >1 when the health check retried
	SaveSkew   sim.Time // last pause - first pause
	StoreTime  sim.Time // image transfer to shared storage
	Downtime   sim.Time // first pause to last resume
	FinishedAt sim.Time

	// Store accounting across the set: object-covered bytes, bytes that
	// actually crossed the wire (equal for full images), and delta
	// dedup hits.
	LogicalBytes int64
	SentBytes    int64
	DedupChunks  int

	targets []*phys.Node // migration destination; nil = same placement
	span    obs.SpanID   // open lsc.epoch span, closed by finishOK/finishFail
}

// RestoreResult reports a coordinated restore.
type RestoreResult struct {
	VC         string
	Generation int
	OK         bool
	Reason     string
	StageTime  sim.Time // image transfer from shared storage
	FinishedAt sim.Time
}

// Coordinator drives LSC over a manager's virtual clusters.
type Coordinator struct {
	mgr *Manager
	cfg LSCConfig

	// FailCount counts failed checkpoints.
	FailCount int
}

// NewCoordinator creates an LSC coordinator.
func NewCoordinator(mgr *Manager, cfg LSCConfig) *Coordinator {
	return &Coordinator{mgr: mgr, cfg: cfg}
}

// tr returns the manager's tracer (nil when tracing is off; every obs
// method is nil-receiver safe).
func (c *Coordinator) tr() *obs.Tracer { return c.mgr.tracer }

// imageKey is the storage key for one domain of one generation.
func imageKey(vcName string, gen int, domain string) string {
	return fmt.Sprintf("lsc/%s/%05d/%s", vcName, gen, domain)
}

// pausePlan computes each domain's absolute pause instant. With sleepers
// set, each instant is armed by a node-local sleeper process, and a
// negative time means that sleeper died and the VM will never pause.
func (c *Coordinator) pausePlan(vc *VirtualCluster, sleepers bool) []sim.Time {
	k := c.mgr.kernel
	rng := k.Rand()
	times := make([]sim.Time, len(vc.domains))
	switch c.cfg.Mode {
	case LSCNaive:
		for i := range times {
			dispatch := sim.Time(i+1) * c.cfg.DispatchWriteCost
			exec := sim.LogNormal(rng, c.cfg.ExecJitterMedian, c.cfg.ExecJitterSigma)
			times[i] = k.Now() + dispatch + exec
		}
	case LSCNTP:
		// One host-clock instant for everyone, read from the
		// coordinator's (first node's) clock.
		coordClock := vc.nodes[0].Clock()
		hostT := coordClock.Read() + c.cfg.ScheduleLead
		for i, node := range vc.nodes {
			trueT := node.Clock().TrueTimeForHostReading(hostT)
			trueT += sim.LogNormal(rng, c.cfg.TimerJitterMed, c.cfg.TimerJitterSigma)
			if trueT < k.Now() {
				trueT = k.Now()
			}
			times[i] = trueT
		}
	}
	if !sleepers || c.cfg.SleeperFailProb <= 0 {
		return times
	}
	for i := range times {
		if rng.Float64() < c.cfg.SleeperFailProb {
			times[i] = -1
		}
	}
	return times
}

// Checkpoint takes a coordinated checkpoint of the virtual cluster and
// calls done with the outcome. Depending on ContinueAfterSave the VC
// either resumes in place or is destroyed and restored from the saved
// images (the Xen-2007 save/restore cycle the paper measured).
func (c *Coordinator) Checkpoint(vc *VirtualCluster, done func(*CheckpointResult)) error {
	return c.checkpointTo(vc, nil, done)
}

// Migrate checkpoints the VC and restores it onto targets — the paper's
// §4 next step: "Extending LSC to enable parallel migration". The
// ContinueAfterSave setting is ignored: a migration always cycles.
func (c *Coordinator) Migrate(vc *VirtualCluster, targets []*phys.Node, done func(*CheckpointResult)) error {
	if len(targets) != vc.spec.Nodes {
		return fmt.Errorf("lsc: migrate %s: %d targets, want %d", vc.spec.Name, len(targets), vc.spec.Nodes)
	}
	return c.checkpointTo(vc, targets, done)
}

func (c *Coordinator) checkpointTo(vc *VirtualCluster, targets []*phys.Node, done func(*CheckpointResult)) error {
	if vc.state != VCReady {
		return fmt.Errorf("lsc: checkpoint %s: cluster is %v", vc.spec.Name, vc.state)
	}
	res := &CheckpointResult{VC: vc.spec.Name, Generation: vc.nextGen, targets: targets}
	vc.nextGen++
	kind := "checkpoint"
	if targets != nil {
		kind = "migrate"
	}
	res.span = c.tr().Begin(c.mgr.kernel.Now(), obs.EvLSCEpoch, "", vc.spec.Name, "epoch",
		obs.Int("gen", int64(res.Generation)), obs.Str("mode", c.cfg.Mode.String()), obs.Str("kind", kind))
	c.tr().Inc("lsc.attempts", 1)
	c.attempt(vc, res, 1, done)
	return nil
}

func (c *Coordinator) attempt(vc *VirtualCluster, res *CheckpointResult, attempt int, done func(*CheckpointResult)) {
	k := c.mgr.kernel
	res.Attempts = attempt
	plan := c.pausePlan(vc, true)

	// Health check (§4 extension): the coordinator verifies every
	// sleeper before the save instant and aborts the round cleanly if
	// one has died, retrying with fresh processes.
	if c.cfg.HealthCheck && slices.Min(plan) < 0 {
		if attempt > c.cfg.HealthRetries {
			c.finishFail(res, "health check: sleeper dead and retries exhausted", done)
			return
		}
		// Abort before anything paused; retry after a beat.
		k.After(sim.Second, func() { c.attempt(vc, res, attempt+1, done) })
		return
	}

	var first, last sim.Time = -1, -1
	scheduled := 0
	missing := 0
	for _, t := range plan {
		if t < 0 {
			missing++
			continue
		}
		if first < 0 || t < first {
			first = t
		}
		if t > last {
			last = t
		}
		scheduled++
	}
	if scheduled == 0 {
		c.finishFail(res, "no sleeper survived", done)
		return
	}
	res.SaveSkew = last - first
	if missing > 0 {
		// Without a health check the coordinator only discovers the
		// missing save when it waits for confirmations: the job is
		// doomed (one VM keeps running against frozen peers).
		res.Reason = fmt.Sprintf("%d vm(s) never saved (sleeper died)", missing)
	}

	vc.state = VCPaused
	c.fanOut(vc, plan, func(d *vm.Domain) { pause(d, &res.Reason) }, func() {
		c.afterPaused(vc, res, first, done)
	})
}

// fanOut is the one fan-out of a cut, shared by LSC's save and resume
// and live migration's stop: it schedules act on every domain whose plan
// instant is non-negative, one kernel event per domain in domain order,
// and calls then once the last has run (at once if none is scheduled).
func (c *Coordinator) fanOut(vc *VirtualCluster, plan []sim.Time, act func(*vm.Domain), then func()) {
	remaining := 0
	for _, t := range plan {
		if t >= 0 {
			remaining++
		}
	}
	if remaining == 0 {
		then()
		return
	}
	for i, t := range plan {
		if t < 0 {
			continue
		}
		d := vc.domains[i]
		c.mgr.kernel.At(t, func() {
			act(d)
			remaining--
			if remaining == 0 {
				then()
			}
		})
	}
}

// pause is a cut's per-domain save step: it pauses d, and the first
// domain that cannot pause names the round's failure in *reason.
func pause(d *vm.Domain, reason *string) {
	if d.Pause() != nil && *reason == "" {
		*reason = fmt.Sprintf("domain %s was %v at save time", d.Name(), d.State())
	}
}

// capture is a cut's capture step, shared by LSC and live migration: it
// captures every domain of the VC in index order and stops at the first
// error. A cut holds every domain or fails: a domain that never paused,
// or whose host crashed after it paused, fails the whole set, so no torn
// set is ever stored. A round whose pause step already failed captures
// nothing. On failure *reason holds the first failure and capture
// returns nil.
func (c *Coordinator) capture(vc *VirtualCluster, reason *string) []*vm.Image {
	if *reason != "" {
		return nil
	}
	images := make([]*vm.Image, len(vc.domains))
	for i, d := range vc.domains {
		img, err := d.Capture(c.cfg.Delta)
		if err != nil {
			*reason = err.Error()
			return nil
		}
		images[i] = img
	}
	return images
}

// release ends a failed cut: every domain still paused resumes (the
// others are left as they are) and the VC is handed back Ready, so it
// can checkpoint or migrate again.
func release(vc *VirtualCluster) {
	for _, d := range vc.domains {
		_ = d.Unpause()
	}
	vc.state = VCReady
}

// afterPaused captures and stores images, then resumes or cycles.
func (c *Coordinator) afterPaused(vc *VirtualCluster, res *CheckpointResult, firstPause sim.Time, done func(*CheckpointResult)) {
	k := c.mgr.kernel
	res.Images = c.capture(vc, &res.Reason)
	if res.Images == nil {
		c.releaseFail(vc, res, res.Reason, done)
		return
	}

	// Write the set to shared storage (fair-share bandwidth).
	storeStart := k.Now()
	var storeBytes int64
	for _, img := range res.Images {
		storeBytes += img.SizeBytes()
	}
	storeSpan := c.tr().Begin(storeStart, obs.EvLSCStore, "", vc.spec.Name, "store",
		obs.Int("images", int64(len(res.Images))), obs.Int("bytes", storeBytes))
	writes := len(res.Images)
	for _, img := range res.Images {
		img := img
		key := imageKey(vc.spec.Name, res.Generation, img.DomainName)
		onWritten := func() {
			writes--
			if writes == 0 {
				res.StoreTime = k.Now() - storeStart
				c.tr().End(k.Now(), storeSpan)
				c.afterStored(vc, res, firstPause, done)
			}
		}
		info, err := c.mgr.store.Write(key, img, onWritten)
		if err != nil {
			c.releaseFail(vc, res, err.Error(), done)
			return
		}
		res.LogicalBytes += info.Logical
		res.SentBytes += info.Sent
		res.DedupChunks += info.DedupChunks
	}
}

func (c *Coordinator) afterStored(vc *VirtualCluster, res *CheckpointResult, firstPause sim.Time, done func(*CheckpointResult)) {
	k := c.mgr.kernel
	if c.cfg.ContinueAfterSave && res.targets == nil {
		// Resume in place with the same skew model (the resume command
		// fans out the same way the save did).
		c.resumeAll(vc, func() {
			res.Downtime = k.Now() - firstPause
			c.finishOK(vc, res, done)
		})
		return
	}
	// Xen-2007 cycle: save destroys the domains; restore from images on
	// the same placement (or the migration targets).
	placement := res.targets
	if placement == nil {
		placement = append([]*phys.Node(nil), vc.nodes...)
	}
	vc.Teardown()
	c.RestoreVC(vc, res.Generation, placement, func(rr *RestoreResult) {
		res.Downtime = k.Now() - firstPause
		if !rr.OK {
			c.finishFail(res, "restore: "+rr.Reason, done)
			return
		}
		c.finishOK(vc, res, done)
	})
}

// resumeAll unpauses every paused domain using the mode's dispatch skew
// and hands the VC back Ready.
func (c *Coordinator) resumeAll(vc *VirtualCluster, then func()) {
	c.fanOut(vc, c.resumePlan(vc), func(d *vm.Domain) { _ = d.Unpause() }, func() {
		vc.state = VCReady
		then()
	})
}

// resumePlan schedules the unpause fan-out. Unlike the save, a resume
// needs no future scheduling: the coordinator pushes unpause commands
// directly. Under the NTP coordinator that is a parallel management-RPC
// fan-out (milliseconds of jitter); the naive coordinator still pays its
// serial terminal dispatch — which is why its restores are as fragile as
// its saves.
func (c *Coordinator) resumePlan(vc *VirtualCluster) []sim.Time {
	k := c.mgr.kernel
	rng := k.Rand()
	times := make([]sim.Time, len(vc.domains))
	if c.cfg.Mode == LSCNaive {
		// The live coordinator issues the resume commands, not sleeping
		// processes, so no sleeper can fail.
		return c.pausePlan(vc, false)
	}
	for i := range times {
		rpc := 2*sim.Millisecond + sim.LogNormal(rng, c.cfg.TimerJitterMed, c.cfg.TimerJitterSigma)
		times[i] = k.Now() + rpc
	}
	return times
}

// RestoreVC restores a saved generation of a VC onto the given placement
// and resumes it. The VC object is rebound to the new domains.
func (c *Coordinator) RestoreVC(vc *VirtualCluster, gen int, placement []*phys.Node, done func(*RestoreResult)) {
	k := c.mgr.kernel
	res := &RestoreResult{VC: vc.spec.Name, Generation: gen}
	// The whole staged restore is one lsc.restore span; closing it in a
	// wrapped callback covers every exit path below.
	span := c.tr().Begin(k.Now(), obs.EvLSCRestore, "", vc.spec.Name, "restore",
		obs.Int("gen", int64(gen)))
	if tr := c.tr(); tr != nil {
		inner := done
		done = func(rr *RestoreResult) {
			outcome := "ok"
			if !rr.OK {
				outcome = "fail"
			}
			tr.End(k.Now(), span, obs.Str("outcome", outcome), obs.Dur("stage", rr.StageTime))
			inner(rr)
		}
	}
	if len(placement) != vc.spec.Nodes {
		res.Reason = fmt.Sprintf("placement has %d nodes, want %d", len(placement), vc.spec.Nodes)
		res.FinishedAt = k.Now()
		done(res)
		return
	}
	stageStart := k.Now()
	images := make([]*vm.Image, vc.spec.Nodes)
	reads := vc.spec.Nodes
	failed := false
	for i := 0; i < vc.spec.Nodes; i++ {
		i := i
		name := fmt.Sprintf("%s-vm%02d", vc.spec.Name, i)
		// Every stored image is self-contained: one read per domain.
		c.mgr.store.Read(imageKey(vc.spec.Name, gen, name), func(img *vm.Image, err error) {
			if err != nil && !failed {
				failed = true
				res.Reason = err.Error()
			}
			images[i] = img
			reads--
			if reads == 0 {
				res.StageTime = k.Now() - stageStart
				if failed {
					res.FinishedAt = k.Now()
					done(res)
					return
				}
				c.materialize(vc, images, placement, res, done)
			}
		})
	}
}

// materialize is the switch-over step shared by RestoreVC and live
// migration: restore every image as a paused domain on its placement
// node (rolling back on the first failure), rebind the VC to the new
// domains and resume them.
func (c *Coordinator) materialize(vc *VirtualCluster, images []*vm.Image, placement []*phys.Node, res *RestoreResult, done func(*RestoreResult)) {
	k := c.mgr.kernel
	newDomains := make([]*vm.Domain, len(images))
	for i, img := range images {
		h := c.mgr.hvs[placement[i].ID()]
		d, err := h.RestoreDomain(img)
		if err != nil {
			res.Reason = err.Error()
			res.FinishedAt = k.Now()
			// Roll back the ones we created.
			for _, nd := range newDomains {
				if nd != nil {
					nd.Destroy()
				}
			}
			done(res)
			return
		}
		newDomains[i] = d
	}
	vc.domains = newDomains
	vc.nodes = append([]*phys.Node(nil), placement...)
	vc.state = VCPaused
	c.resumeAll(vc, func() {
		res.OK = true
		res.FinishedAt = k.Now()
		done(res)
	})
}

func (c *Coordinator) finishOK(vc *VirtualCluster, res *CheckpointResult, done func(*CheckpointResult)) {
	res.OK = true
	res.FinishedAt = c.mgr.kernel.Now()
	if tr := c.tr(); tr != nil {
		now := c.mgr.kernel.Now()
		tr.Emit(now, obs.EvLSCCommit, "", res.VC, "commit", obs.Int("gen", int64(res.Generation)))
		tr.End(now, res.span, obs.Str("outcome", "commit"),
			obs.Dur("skew", res.SaveSkew), obs.Dur("downtime", res.Downtime))
		tr.Inc("lsc.commits", 1)
		tr.Observe("lsc.save_skew_ms", float64(res.SaveSkew)/1e6)
		tr.Observe("lsc.downtime_ms", float64(res.Downtime)/1e6)
	}
	done(res)
}

// releaseFail ends a round that failed after the save set paused: every
// paused domain is resumed and the VC handed back Ready, so it can
// checkpoint again, and the round reports reason.
func (c *Coordinator) releaseFail(vc *VirtualCluster, res *CheckpointResult, reason string, done func(*CheckpointResult)) {
	release(vc)
	c.finishFail(res, reason, done)
}

func (c *Coordinator) finishFail(res *CheckpointResult, reason string, done func(*CheckpointResult)) {
	c.FailCount++
	res.OK = false
	res.Reason = reason
	res.FinishedAt = c.mgr.kernel.Now()
	if tr := c.tr(); tr != nil {
		now := c.mgr.kernel.Now()
		tr.Emit(now, obs.EvLSCAbort, "", res.VC, "abort", obs.Str("reason", res.Reason))
		tr.End(now, res.span, obs.Str("outcome", "abort"), obs.Str("reason", res.Reason))
		tr.Inc("lsc.aborts", 1)
	}
	done(res)
}

// InspectImages checks a captured set for consistency damage: any TCP
// connection that reset, or any process that exited with an error,
// before the snapshot was taken. A clean bill here is the paper's "no
// failures to either save or restore".
func InspectImages(images []*vm.Image) error {
	for _, img := range images {
		snap, err := guest.DecodeImagePayload(img.Data)
		if err != nil {
			return fmt.Errorf("inspect %s: %w", img.DomainName, err)
		}
		for _, cs := range snap.Stack.Conns {
			if cs.State == tcp.StateReset {
				return fmt.Errorf("inspect %s: connection %v reset before snapshot", img.DomainName, cs.Key)
			}
		}
		for _, ps := range snap.Procs {
			if ps.Exited && ps.ExitCode != 0 {
				return fmt.Errorf("inspect %s: pid %d exited %d before snapshot", img.DomainName, ps.PID, ps.ExitCode)
			}
		}
	}
	return nil
}
