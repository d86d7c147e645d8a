// Package fleet is the deterministic parallel trial runner for the
// experiment harness: it fans independent trial closures across a bounded
// worker pool and delivers results indexed by trial number, so the
// aggregation order — and therefore every table, digest and shape check —
// is byte-for-byte identical to a serial loop.
//
// fleet is the single sanctioned concurrency package in the module (see
// internal/analysis/rules.go). The determinism contract survives because
// of two structural properties:
//
//  1. Kernels never cross goroutines. Each trial closure builds its own
//     sim.Kernel with its own seed and runs it to completion on one
//     worker; no simulation object is ever shared between workers. A
//     trial is a pure function of its index.
//  2. Results merge in index order. Workers write only out[i] for the
//     trial indices they executed (disjoint slice elements), and callers
//     aggregate the returned slice with an ordinary index-ordered loop —
//     exactly the order the serial loop would have produced.
//
// Host-scheduler nondeterminism therefore only affects *when* a trial
// executes, never *what* it computes or the order in which its result is
// observed. The serial-vs-parallel equivalence test in
// internal/experiments enforces this end to end (identical tables, check
// results and JSONL trace bytes at GOMAXPROCS=1 and GOMAXPROCS=4).
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default pool size: the process's GOMAXPROCS
// (the number of cores Go will actually schedule on).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// trialPanic carries a recovered panic out of a worker.
type trialPanic struct {
	trial int
	value any
}

// Error formats the panic for re-raise on the caller's goroutine.
func (p *trialPanic) Error() string {
	return fmt.Sprintf("fleet: trial %d panicked: %v", p.trial, p.value)
}

// Map runs fn(0), fn(1), ..., fn(n-1) across at most workers goroutines
// and returns the results indexed by trial number. workers <= 0 selects
// DefaultWorkers(); workers == 1 runs the trials inline on the calling
// goroutine (no goroutines are spawned at all — the pure serial path).
//
// fn must be safe for concurrent invocation with distinct indices: a
// trial closure may only touch state it creates itself (its own kernel,
// bed, apps) plus its return value. It must not write to shared
// aggregates — return the per-trial measurements and fold them after Map
// returns, in index order.
//
// If one or more trials panic, Map waits for the remaining workers to
// drain and then re-panics on the calling goroutine with the panic of
// the lowest trial index (a deterministic choice, so a buggy experiment
// fails identically regardless of worker interleaving).
func Map[T any](workers, n int, fn func(trial int) T) []T {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	var (
		next    atomic.Int64 // next unclaimed trial index
		wg      sync.WaitGroup
		mu      sync.Mutex
		panics  []*trialPanic
		runOne  func(i int) (p *trialPanic)
		claimed = func() int { return int(next.Add(1) - 1) }
	)
	runOne = func(i int) (p *trialPanic) {
		defer func() {
			if r := recover(); r != nil {
				p = &trialPanic{trial: i, value: r}
			}
		}()
		out[i] = fn(i)
		return nil
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := claimed()
				if i >= n {
					return
				}
				if p := runOne(i); p != nil {
					mu.Lock()
					panics = append(panics, p)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(panics) > 0 {
		// Deterministic propagation: the lowest trial index wins, which is
		// the panic the serial loop would have hit first.
		first := panics[0]
		for _, p := range panics[1:] {
			if p.trial < first.trial {
				first = p
			}
		}
		panic(first)
	}
	return out
}
