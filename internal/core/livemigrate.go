package core

import (
	"fmt"

	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/vm"
)

// Live (pre-copy) migration: the stop-and-copy migration the paper's LSC
// gives for free has downtime proportional to total VM memory. Pre-copy
// (Clark et al., NSDI'05-style) transfers memory while the guests keep
// running, re-copying what they re-dirty, and only pauses the cluster for
// the final residual — the natural next step after the paper's §4
// "extending LSC to enable parallel migration".
//
// The twist DVC adds over single-VM live migration is that the *final
// stop* must still be LSC-coordinated across every VM of the virtual
// cluster, because it is a network-wide cut.

// LiveConfig tunes pre-copy.
type LiveConfig struct {
	// MaxRounds bounds the pre-copy iterations per domain.
	MaxRounds int
	// StopThreshold: pause once the residual dirty set is below this.
	StopThreshold int64
	// Delta makes the first pre-copy round WAN-aware: RAM chunks the
	// page table has never seen dirtied (golden-image template and
	// zeroed memory, present at or derivable by any site) are skipped
	// instead of copied, and the final capture is a delta image so the
	// restored domain keeps its chunk lineage. A fully-dirtied guest
	// skips nothing — the optimisation decays honestly to standard
	// pre-copy.
	Delta bool
}

// DefaultLiveConfig matches common hypervisor defaults.
func DefaultLiveConfig() LiveConfig {
	return LiveConfig{MaxRounds: 6, StopThreshold: 16 << 20}
}

// LiveMigrationResult reports a pre-copy migration.
type LiveMigrationResult struct {
	VC     string
	OK     bool
	Reason string

	Rounds       int      // worst-case pre-copy rounds across domains
	BytesCopied  int64    // total bytes moved, including re-copies
	BytesSkipped int64    // untouched chunks elided by the delta path
	Downtime     sim.Time // coordinated pause to resume
	TotalTime    sim.Time // start to resume
}

// LiveMigrate moves a running VC onto targets with pre-copy. The VC keeps
// executing during the bulk transfer; only the final residual copy
// happens inside the coordinated pause.
func (c *Coordinator) LiveMigrate(vc *VirtualCluster, targets []*phys.Node, cfg LiveConfig, done func(*LiveMigrationResult)) error {
	if vc.state != VCReady {
		return fmt.Errorf("lsc: live-migrate %s: cluster is %v", vc.spec.Name, vc.state)
	}
	if len(targets) != vc.spec.Nodes {
		return fmt.Errorf("lsc: live-migrate %s: %d targets, want %d", vc.spec.Name, len(targets), vc.spec.Nodes)
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 1
	}
	k := c.mgr.kernel
	res := &LiveMigrationResult{VC: vc.spec.Name}
	start := k.Now()
	span := c.tr().Begin(start, obs.EvLiveMigrate, "", vc.spec.Name, "live-migrate",
		obs.Int("domains", int64(vc.spec.Nodes)))
	if tr := c.tr(); tr != nil {
		inner := done
		done = func(r *LiveMigrationResult) {
			outcome := "ok"
			if !r.OK {
				outcome = "fail"
			}
			tr.End(k.Now(), span, obs.Str("outcome", outcome),
				obs.Int("rounds", int64(r.Rounds)), obs.Int("bytes", r.BytesCopied),
				obs.Dur("downtime", r.Downtime))
			tr.Inc("live.migrations", 1)
			tr.Observe("live.downtime_ms", float64(r.Downtime)/1e6)
			inner(r)
		}
	}

	states := make([]*liveDomState, len(vc.domains))
	fabric := c.mgr.site.Fabric
	for i, d := range vc.domains {
		bw := fabric.ClusterBandwidth(d.Node().Cluster(), targets[i].Cluster())
		if bw <= 0 {
			return fmt.Errorf("lsc: live-migrate %s: no path bandwidth", vc.spec.Name)
		}
		states[i] = &liveDomState{d: d, bw: bw}
	}

	remaining := len(states)
	var afterPreCopy func()

	// Per-domain pre-copy loop: copy the current dirty set while the
	// guest runs; what it re-dirties during the copy becomes the next
	// round.
	var runRound func(s *liveDomState, toCopy int64)
	runRound = func(s *liveDomState, toCopy int64) {
		s.rounds++
		copyTime := sim.Time(float64(toCopy) / s.bw * float64(sim.Second))
		mark := s.d.MarkClean()
		res.BytesCopied += toCopy
		c.tr().Emit(k.Now(), obs.EvLiveRound, s.d.Node().ID(), s.d.Name(), "pre-copy",
			obs.Int("round", int64(s.rounds)), obs.Int("bytes", toCopy))
		k.After(copyTime, func() {
			if s.d.State() != vm.StateRunning {
				// Crashed or externally paused mid-migration.
				res.Reason = fmt.Sprintf("domain %s became %v during pre-copy", s.d.Name(), s.d.State())
				remaining--
				if remaining == 0 {
					afterPreCopy()
				}
				return
			}
			dirty := s.d.DirtyBytesSince(mark)
			if dirty <= cfg.StopThreshold || s.rounds >= cfg.MaxRounds {
				s.residual = dirty
				s.converged = s.d.MarkClean()
				if s.rounds > res.Rounds {
					res.Rounds = s.rounds
				}
				remaining--
				if remaining == 0 {
					afterPreCopy()
				}
				return
			}
			runRound(s, dirty)
		})
	}

	afterPreCopy = func() {
		if res.Reason != "" {
			res.OK = false
			res.TotalTime = k.Now() - start
			done(res)
			return
		}
		// Coordinated stop (the LSC part): pause everyone, copy each
		// domain's residual (plus whatever it dirtied while waiting for
		// the slowest sibling), restore on the targets, resume.
		plan := c.pausePlan(vc, false)
		var firstPause sim.Time = -1
		left := len(plan)
		for i, t := range plan {
			i := i
			if firstPause < 0 || t < firstPause {
				firstPause = t
			}
			k.At(t, func() {
				_ = vc.domains[i].Pause()
				left--
				if left == 0 {
					residuals := make([]liveResidual, len(states))
					for j, s := range states {
						residuals[j] = liveResidual{bytes: s.residual, bw: s.bw, mark: s.converged}
					}
					c.liveFinal(vc, residuals, targets, res, cfg.Delta, start, firstPause, done)
				}
			})
		}
	}

	for _, s := range states {
		first := s.d.RAMBytes()
		if cfg.Delta {
			// Fold any dirt accumulated since boot into the page table,
			// then elide the chunks nobody has ever written: the target
			// reconstructs template and zero chunks locally.
			s.d.MarkClean()
			skip := s.d.UntouchedBytes()
			res.BytesSkipped += skip
			first -= skip
		}
		runRound(s, first)
	}
	return nil
}

// liveDomState tracks one domain through pre-copy.
type liveDomState struct {
	d         *vm.Domain
	bw        float64
	residual  int64
	converged sim.Time // active-time mark when pre-copy converged
	rounds    int
}

type liveResidual struct {
	bytes int64
	bw    float64
	mark  sim.Time
}

// liveFinal performs the stop-phase copy and switch-over.
func (c *Coordinator) liveFinal(vc *VirtualCluster, residuals []liveResidual, targets []*phys.Node, res *LiveMigrationResult, delta bool, start, firstPause sim.Time, done func(*LiveMigrationResult)) {
	k := c.mgr.kernel
	// Residual + late dirt copy time; domains are paused so the set is
	// final. The copies run in parallel; downtime is the slowest.
	var final sim.Time
	for i, d := range vc.domains {
		late := d.DirtyBytesSince(residuals[i].mark)
		bytes := residuals[i].bytes + late
		res.BytesCopied += bytes
		t := sim.Time(float64(bytes) / residuals[i].bw * float64(sim.Second))
		if t > final {
			final = t
		}
	}
	// Capture the functional state now (it is what the target resumes).
	// Every image carries its page table, so the restored domains keep
	// their chunk lineage: the next delta epoch at the destination
	// dedups against everything transferred before the move.
	images := make([]*vm.Image, len(vc.domains))
	for i, d := range vc.domains {
		img, err := d.Capture(delta)
		if err != nil {
			// Failed capture: release the paused domains, as LSC does for
			// an incomplete save set, and report failure.
			for _, d := range vc.domains {
				if d.State() == vm.StatePaused {
					_ = d.Unpause()
				}
			}
			res.Reason = err.Error()
			res.TotalTime = k.Now() - start
			done(res)
			return
		}
		images[i] = img
	}
	k.After(final, func() {
		for _, d := range vc.domains {
			d.Destroy()
		}
		c.materialize(vc, images, targets, &RestoreResult{VC: vc.spec.Name}, func(rr *RestoreResult) {
			if rr.OK {
				res.OK = true
				res.Downtime = k.Now() - firstPause
			} else {
				res.Reason = rr.Reason
			}
			res.TotalTime = k.Now() - start
			done(res)
		})
	})
}
