// Package ckpt models the checkpointing-method taxonomy of the paper's
// §2 — application level, user level (libckpt-style), kernel level
// (CRAK/BLCR-style) and whole-VM (DVC) — so experiment E5 can compare
// "the efficiency of DVC checkpoints vs. application specific checkpoints
// for common applications".
//
// The trade the paper describes is monotone in both directions:
// image size (and hence save/restore time) grows App < User < Kernel < VM,
// while the burden on the programmer shrinks in the same order, with only
// the VM level giving completely transparent *parallel* checkpoints.
package ckpt

import (
	"fmt"

	"dvc/internal/sim"
)

// Method is a checkpointing approach.
type Method int

// The four methods of the paper's taxonomy.
const (
	AppLevel Method = iota
	UserLevel
	KernelLevel
	VMLevel
)

func (m Method) String() string {
	switch m {
	case AppLevel:
		return "application"
	case UserLevel:
		return "user-level"
	case KernelLevel:
		return "kernel-level"
	case VMLevel:
		return "vm-level"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Methods lists all methods in increasing-transparency order.
func Methods() []Method { return []Method{AppLevel, UserLevel, KernelLevel, VMLevel} }

// Requirements captures what a method demands of the application and
// system — the transparency axis.
type Requirements struct {
	// SourceChanges: the programmer writes checkpoint code (app level).
	SourceChanges bool
	// Relink: the binary must be linked against a checkpoint library
	// (libckpt, BLCR) and restricted MPI implementations.
	Relink bool
	// KernelModule: a kernel module must be loaded (CRAK, BLCR).
	KernelModule bool
	// TransparentParallel: arbitrary *parallel* jobs checkpoint without
	// any of the above. Only the VM level achieves this (§2.1).
	TransparentParallel bool
	// SavesKernelState: open files, sockets, kernel buffers survive.
	SavesKernelState bool
}

// Requirements returns the method's demands.
func (m Method) Requirements() Requirements {
	switch m {
	case AppLevel:
		return Requirements{SourceChanges: true}
	case UserLevel:
		return Requirements{Relink: true}
	case KernelLevel:
		return Requirements{KernelModule: true, SavesKernelState: true}
	default:
		return Requirements{TransparentParallel: true, SavesKernelState: true}
	}
}

// Footprint describes one process/VM's memory layout, the sizes the four
// methods select between.
type Footprint struct {
	// LiveData is the minimal restart state the application itself would
	// save (for HPL: the remaining matrix panels).
	LiveData int64
	// WorkingSet is the process's touched memory: live data plus heap
	// slack, buffers, stacks.
	WorkingSet int64
	// CodeAndLibs is the text/rodata the user/kernel checkpointers dump.
	CodeAndLibs int64
	// KernelState is in-kernel per-process state (descriptors, socket
	// buffers) a kernel-level checkpoint adds.
	KernelState int64
	// GuestRAM is the VM's total memory — what a whole-VM save writes,
	// regardless of how much of it the application uses.
	GuestRAM int64
}

// DefaultFootprint builds a footprint for an application with the given
// live data on a guest with ramBytes of memory, using 2007-era process
// overheads.
func DefaultFootprint(liveData, ramBytes int64) Footprint {
	return Footprint{
		LiveData:    liveData,
		WorkingSet:  liveData + liveData/8 + 64<<20,
		CodeAndLibs: 48 << 20,
		KernelState: 8 << 20,
		GuestRAM:    ramBytes,
	}
}

// ImageBytes returns the checkpoint image size the method writes.
func (m Method) ImageBytes(fp Footprint) int64 {
	switch m {
	case AppLevel:
		return fp.LiveData
	case UserLevel:
		return fp.WorkingSet + fp.CodeAndLibs
	case KernelLevel:
		return fp.WorkingSet + fp.CodeAndLibs + fp.KernelState
	default:
		return fp.GuestRAM
	}
}

// Estimate is a per-method cost prediction.
type Estimate struct {
	Method      Method
	ImageBytes  int64
	SaveTime    sim.Time
	RestoreTime sim.Time
	Requirements
}

// Estimates computes all four methods' costs for a footprint at the given
// storage bandwidth (bytes/s).
func Estimates(fp Footprint, bw float64) []Estimate {
	out := make([]Estimate, 0, 4)
	for _, m := range Methods() {
		size := m.ImageBytes(fp)
		d := sim.Time(float64(size) / bw * float64(sim.Second))
		out = append(out, Estimate{
			Method:       m,
			ImageBytes:   size,
			SaveTime:     d,
			RestoreTime:  d,
			Requirements: m.Requirements(),
		})
	}
	return out
}
