package vm

import (
	"dvc/internal/sim"
)

// Dirty-page modelling: live migration and delta checkpointing both
// depend on how fast a guest rewrites its memory. The model is the
// standard one from the live-migration literature: a guest dirties pages
// at a writable-working-set rate while it runs, saturating at its RAM
// size (re-dirtying the same pages adds nothing).

// DefaultDirtyRate is the default guest write rate: an active HPC code
// streaming through its arrays rewrites tens of MB/s of distinct pages.
const DefaultDirtyRate = 40e6 // bytes/s

// SetDirtyRate overrides the domain's dirty-page rate (bytes/s of
// *distinct* pages). Zero restores the default; a negative rate models
// a write-quiescent guest that dirties nothing at all.
func (d *Domain) SetDirtyRate(rate float64) {
	d.dirtyRate = rate
}

func (d *Domain) effectiveDirtyRate() float64 {
	if d.dirtyRate < 0 {
		return 0
	}
	if d.dirtyRate > 0 {
		return d.dirtyRate
	}
	return DefaultDirtyRate
}

// activeTime returns how long the guest has actually executed (guest
// jiffies) — paused intervals dirty nothing.
func (d *Domain) activeTime() sim.Time {
	if d.os == nil {
		return 0
	}
	return d.os.Jiffies()
}

// DirtyBytesSince models how much distinct memory the guest has written
// since the given active-time mark, saturating at the guest's RAM.
func (d *Domain) DirtyBytesSince(mark sim.Time) int64 {
	active := d.activeTime() - mark
	if active < 0 {
		active = 0
	}
	dirty := int64(d.effectiveDirtyRate() * active.Seconds())
	if dirty > d.ram {
		dirty = d.ram
	}
	return dirty
}

// MarkClean records the current active time as the last capture mark
// and returns it (live migration calls this at each pre-copy round;
// Capture marks on its own). The interval's dirt is folded into the
// page table first, so chunk versions stay in step with the byte model.
func (d *Domain) MarkClean() sim.Time {
	d.fold()
	return d.cleanMark
}

// fold advances the page table by the dirt since the clean mark,
// re-marks, and returns the dirt folded.
func (d *Domain) fold() int64 {
	dirty := d.DirtyBytesSince(d.cleanMark)
	d.ensurePages().advance(dirty)
	d.cleanMark = d.activeTime()
	return dirty
}
