package rm

import (
	"fmt"
	"testing"

	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/workload"
)

// TestChaosMonkey drives the whole stack — RM, DVC, LSC, storage, fault
// injection — under randomized load and crashes, across several seeds,
// and checks the global invariants: every job eventually completes
// (repairs guarantee capacity), nothing is double-counted, claims are
// consistent, and DVC never loses more than the whole run per fault.
func TestChaosMonkey(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	totalCrashes := 0
	defer func() {
		if !t.Failed() && totalCrashes == 0 {
			t.Error("chaos sweep injected no crashes; MTBF needs tightening")
		}
	}()
	for seedIdx := 0; seedIdx < 3; seedIdx++ {
		seedIdx := seedIdx
		t.Run(fmt.Sprintf("seed=%d", seedIdx), func(t *testing.T) {
			cfg := DefaultConfig(DVC)
			cfg.CheckpointInterval = 90 * sim.Second
			cfg.MaxRequeues = 50
			b := newBed(t, 500+int64(seedIdx), 10, cfg)

			trace := workload.Generate(b.k.Rand(), workload.MixConfig{
				Count:       10,
				ArrivalMean: 30 * sim.Second,
				Widths:      []int{1, 2, 4},
				WorkMin:     2 * sim.Minute,
				WorkMax:     8 * sim.Minute,
			})
			b.rm.SubmitTrace(trace)

			inj := phys.NewInjector(b.k, phys.InjectorConfig{
				MTBF:       2 * sim.Hour,
				RepairTime: 3 * sim.Minute,
			})
			inj.Start(b.site.Nodes())

			deadline := 24 * sim.Hour
			for b.k.Now() < deadline && !b.rm.AllDone() {
				b.k.RunFor(30 * sim.Second)
				// Invariant: claim table is consistent with running jobs.
				for idx, j := range b.rm.claimedBy {
					if j == nil {
						continue
					}
					found := false
					for _, n := range j.nodes {
						if n.Index() == idx {
							found = true
						}
					}
					if !found {
						t.Fatalf("claim table references node index %d not in job %s's placement",
							idx, j.Spec.ID)
					}
				}
			}
			inj.Stop()
			totalCrashes += inj.Crashes()
			if !b.rm.AllDone() {
				t.Fatalf("chaos run did not converge: %d queued, %d running (crashes=%d)",
					len(b.rm.queue), len(b.rm.running), inj.Crashes())
			}
			s := b.rm.Stats()
			if s.Completed != 10 {
				t.Fatalf("completed %d of 10 (failed %d, crashes %d)", s.Completed, s.Failed, inj.Crashes())
			}
			// Jobs are counted exactly once.
			if len(b.rm.Jobs()) != 10 {
				t.Fatalf("job ledger has %d entries", len(b.rm.Jobs()))
			}
			// Every node claim was released.
			for idx, j := range b.rm.claimedBy {
				if j != nil {
					t.Fatalf("node index %d still claimed by %s after completion",
						idx, j.Spec.ID)
				}
			}
		})
	}
}
