// Package workload generates synthetic job mixes for the resource-manager
// experiments (E8, E9) and provides a generic BSP application whose only
// parameter is how much work it does.
package workload

import (
	"fmt"
	"math/rand"

	"dvc/internal/imgcodec"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&BSPApp{})
}

// JobSpec is one job in a trace.
type JobSpec struct {
	ID      string
	Width   int      // nodes required
	Work    sim.Time // per-node compute time at nominal rate
	Arrival sim.Time // submission time
	// Stack is the software environment the job was built against.
	// Physical execution requires nodes with exactly this stack (empty =
	// runs anywhere); DVC boots the stack inside the VMs instead.
	Stack string
}

// MixConfig tunes the trace generator.
type MixConfig struct {
	Count        int
	ArrivalMean  sim.Time // exponential inter-arrival
	Widths       []int    // choices, drawn uniformly
	WorkMin      sim.Time
	WorkMax      sim.Time
	WidthWeights []float64 // optional weights matching Widths
}

// Generate draws a job trace from the config. The first job arrives at
// time zero.
func Generate(rng *rand.Rand, cfg MixConfig) []JobSpec {
	jobs := make([]JobSpec, cfg.Count)
	var at sim.Time
	for i := range jobs {
		w := cfg.Widths[pickIdx(rng, cfg.Widths, cfg.WidthWeights)]
		jobs[i] = JobSpec{
			ID:      fmt.Sprintf("job%03d", i),
			Width:   w,
			Work:    sim.Uniform(rng, cfg.WorkMin, cfg.WorkMax),
			Arrival: at,
		}
		at += sim.Exp(rng, cfg.ArrivalMean)
	}
	return jobs
}

func pickIdx(rng *rand.Rand, widths []int, weights []float64) int {
	if len(weights) != len(widths) {
		return rng.Intn(len(widths))
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(widths) - 1
}

// BSPApp is a bulk-synchronous job: Slices rounds of SliceTime compute,
// with a barrier after each round. Progress (completed slices) survives
// checkpoints, so lost work after a failure is measurable.
type BSPApp struct {
	Slices    int
	SliceTime sim.Time

	I     int
	Phase int
	Done  bool
}

// NewBSPApp builds a BSP app doing `work` of compute in ~10s slices.
func NewBSPApp(work sim.Time) *BSPApp {
	slice := 10 * sim.Second
	n := int(work / slice)
	if n < 1 {
		n = 1
	}
	return &BSPApp{Slices: n, SliceTime: slice}
}

// Step implements mpi.App.
func (a *BSPApp) Step(c mpi.Ctx, prev mpi.Op) mpi.Op {
	for {
		if a.I >= a.Slices {
			a.Done = true
			return nil
		}
		if a.Phase == 0 {
			a.Phase = 1
			return c.Compute(a.SliceTime)
		}
		a.Phase = 0
		a.I++
		if c.RT.Size > 1 {
			return mpi.NewBarrier()
		}
	}
}
