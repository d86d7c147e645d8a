// Package hpcc implements the HPC Challenge workloads the paper tests
// LSC with (§3.2): HPL (distributed LU factorisation with partial
// pivoting) and PTRANS (parallel matrix transpose, "a communication heavy
// test"), plus a sequential kernel and a ping-pong microbenchmark.
//
// The solvers do real arithmetic on real (small) matrices so that a
// checkpoint/restore mid-run is verified against the true numerical
// result, while the *time* they charge is modelled from flop counts and a
// configurable compute rate — large paper-scale problem sizes take
// realistic simulated time without large host compute.
package hpcc

import (
	"math"

	"dvc/internal/mpi"
	"dvc/internal/sim"
)

// Verified reports whether one rank's application verified: a halo
// finished its rounds, HPL and PTRANS passed their numerical checks, and
// RandomAccess found its table slice as the update stream predicts. Any
// other application never verifies. HPL, PTRANS and RandomAccess exit 0
// whether or not their check passed, so a finished job is not a verified
// one.
func Verified(app mpi.App) bool {
	switch a := app.(type) {
	case *Halo:
		return a.Finished
	case *HPL:
		return a.Passed
	case *PTRANS:
		return a.Passed
	case *RandomAccess:
		return a.Verified
	}
	return false
}

// Elem deterministically generates matrix element (i,j) for a seed, in
// [-0.5, 0.5). Any rank can regenerate any element locally, which is what
// makes distributed verification cheap.
func Elem(seed int64, i, j int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + uint64(j)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) - 0.5
}

// RHS generates element i of the right-hand-side vector b.
func RHS(seed int64, i int) float64 { return Elem(seed^0x5DEECE66D, i, 1<<30) }

// FlopsTime converts a flop count into compute time at rate gflops.
func FlopsTime(flops float64, gflops float64) sim.Time {
	if gflops <= 0 {
		gflops = 1
	}
	return sim.Time(flops / (gflops * 1e9) * float64(sim.Second))
}

// owner maps global row i to its rank under the cyclic distribution all
// workloads here use.
func owner(i, size int) int { return i % size }

// residualNorm computes the HPL-style scaled residual
// ||Ax-b||_inf / (eps * ||A||_1 * N).
func residualNorm(seed int64, n int, x []float64) float64 {
	// ||A||_1: max column sum of |a_ij|.
	normA := 0.0
	for j := 0; j < n; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += math.Abs(Elem(seed, i, j))
		}
		if s > normA {
			normA = s
		}
	}
	rmax := 0.0
	for i := 0; i < n; i++ {
		r := -RHS(seed, i)
		for j := 0; j < n; j++ {
			r += Elem(seed, i, j) * x[j]
		}
		if math.Abs(r) > rmax {
			rmax = math.Abs(r)
		}
	}
	eps := 2.22e-16
	return rmax / (eps * normA * float64(n))
}
