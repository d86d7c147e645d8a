package core

import (
	"dvc/internal/sim"
)

// Periodic drives checkpoints of one VC at a fixed interval, the way the
// paper's tests ran "multiple problem sizes ... with varying times
// between checkpoints".
type Periodic struct {
	c        *Coordinator
	vc       *VirtualCluster
	interval sim.Time
	onEach   func(*CheckpointResult)

	timer   *sim.Timer // interval tick; rearmed in place after each attempt
	stopped bool

	// Results collects every completed attempt.
	Results []*CheckpointResult
}

// StartPeriodic begins periodic checkpointing. The next checkpoint is
// scheduled interval after the previous one completes (not fixed-rate),
// so slow saves do not pile up. onEach may be nil.
func (c *Coordinator) StartPeriodic(vc *VirtualCluster, interval sim.Time, onEach func(*CheckpointResult)) *Periodic {
	p := &Periodic{c: c, vc: vc, interval: interval, onEach: onEach}
	p.arm()
	return p
}

func (p *Periodic) arm() {
	if p.timer == nil {
		p.timer = sim.NewTimer(p.c.mgr.kernel, p.tick)
	}
	p.timer.Reset(p.interval)
}

func (p *Periodic) tick() {
	if p.stopped {
		return
	}
	if p.vc.State() != VCReady || p.vc.JobStatus().Done() {
		// Not checkpointable right now (mid-recovery or job finished);
		// try again next interval.
		p.arm()
		return
	}
	err := p.c.Checkpoint(p.vc, func(res *CheckpointResult) {
		p.Results = append(p.Results, res)
		if p.onEach != nil {
			p.onEach(res)
		}
		if !p.stopped {
			p.arm()
		}
	})
	if err != nil {
		p.arm()
	}
}

// Stop halts the loop (an in-flight checkpoint still completes) and
// frees its timer, whose slot would otherwise keep the loop, and with it
// the virtual cluster's guests, reachable from the kernel.
func (p *Periodic) Stop() {
	p.stopped = true
	p.timer.Free()
}

// SucceededCount reports how many attempts completed OK.
func (p *Periodic) SucceededCount() int {
	n := 0
	for _, r := range p.Results {
		if r.OK {
			n++
		}
	}
	return n
}
