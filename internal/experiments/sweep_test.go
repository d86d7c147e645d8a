package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dvc/internal/core"
	"dvc/internal/obs"
	"dvc/internal/sim"
)

// TestSweepContract: sweep returns each cell's results in trial order,
// measures every (cell, trial) exactly once, and merges the child
// traces in (cell, trial) order, so the trace bytes are the same at any
// pool size.
func TestSweepContract(t *testing.T) {
	cells := []int{0, 1, 2}
	const trials = 4
	run := func(procs int) ([][]string, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var trace bytes.Buffer
		tr := obs.NewTracerWithSink(obs.NewJSONLSink(&trace, 0))
		calls := make([]int, len(cells)*trials)
		got := sweep(Options{Tracer: tr}, cells, trials, func(c, trial int, tr *obs.Tracer) string {
			calls[c*trials+trial]++ // one slot per (cell, trial)
			name := fmt.Sprintf("%d/%d", c, trial)
			// Later cells record at earlier instants: only the merge
			// order, never a sort by time, keeps them after the earlier
			// cells.
			tr.Emit(sim.Time(10*(len(cells)-c)+trial), obs.EvLSCCommit, "", "", name)
			return name
		})
		for i, n := range calls {
			if n != 1 {
				t.Errorf("GOMAXPROCS=%d: (cell %d, trial %d) measured %d times, want 1", procs, i/trials, i%trials, n)
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return got, trace.String()
	}

	got, serial := run(1)
	for ci, c := range cells {
		if len(got[ci]) != trials {
			t.Fatalf("cell %d: %d results, want %d", c, len(got[ci]), trials)
		}
		for trial, r := range got[ci] {
			if want := fmt.Sprintf("%d/%d", c, trial); r != want {
				t.Errorf("cell %d trial %d: result %q, want %q", c, trial, r, want)
			}
		}
	}
	last := -1
	for _, c := range cells {
		for trial := 0; trial < trials; trial++ {
			i := strings.Index(serial, fmt.Sprintf("%q", fmt.Sprintf("%d/%d", c, trial)))
			if i <= last {
				t.Fatalf("trace record %d/%d is missing or out of (cell, trial) order:\n%s", c, trial, serial)
			}
			last = i
		}
	}
	if _, par := run(4); par != serial {
		t.Errorf("merged trace differs between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", serial, par)
	}
}

// TestLaunchPanicsBeforeBoot: launch refuses a VC whose boot has not
// finished, rather than letting an experiment run on without its job.
func TestLaunchPanicsBeforeBoot(t *testing.T) {
	b := newBed(1, map[string]int{"alpha": 2}, core.DefaultNTPLSC(), false)
	vc := b.allocateOn("early", 2, "alpha") // allocated; the kernel never runs
	defer func() {
		if recover() == nil {
			t.Fatal("launch on a booting VC did not panic")
		}
	}()
	launch(vc, halo(1))
}
