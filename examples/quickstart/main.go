// Quickstart: build a site, allocate a virtual cluster, run an unmodified
// MPI application (HPL), take one completely transparent parallel
// checkpoint, and let the job run to a verified finish.
package main

import (
	"fmt"
	"log"

	"dvc"
	"dvc/internal/hpcc"
)

func main() {
	// A deterministic simulation: same seed, same run.
	s := dvc.NewSimulation(42)
	s.AddCluster("alpha", 8)
	s.Start() // NTP begins disciplining the node clocks

	// DVC goal 1: a per-job software environment. The job asks for a
	// 4-VM virtual cluster; DVC picks physical nodes and boots Xen-like
	// domains on them.
	vc := s.MustAllocate(dvc.VCSpec{
		Name:     "quickstart",
		Nodes:    4,
		VMRAM:    256 << 20,
		Watchdog: dvc.DefaultWatchdog(),
	})
	fmt.Printf("virtual cluster ready on: ")
	for _, n := range vc.PhysicalNodes() {
		fmt.Printf("%s ", n.ID())
	}
	fmt.Println()

	// Launch HPL. The application is a plain MPI program: it knows
	// nothing about checkpoints.
	if _, err := vc.LaunchMPI(6000, func(rank int) dvc.App {
		return dvc.NewHPL(128, 42, 2e-5) // N=128, slowed so we can interrupt it
	}); err != nil {
		log.Fatal(err)
	}
	s.RunFor(2 * dvc.Second) // the factorisation is now mid-flight

	// Lazy Synchronous Checkpointing: every VM pauses at the same
	// NTP-scheduled instant; TCP repairs the cut network state.
	res := s.MustCheckpoint(vc)
	fmt.Printf("checkpoint: skew=%v (TCP budget %v), downtime=%v, %d images stored\n",
		res.SaveSkew, dvc.TCPRetryBudget(), res.Downtime, len(res.Images))

	// The job resumes from the restored VMs and finishes.
	js := s.RunUntilJobDone(vc, 2*dvc.Hour)
	if !js.AllOK() {
		log.Fatalf("job failed: %+v", js)
	}
	h := vc.RankApps()[0].(*hpcc.HPL)
	fmt.Printf("HPL finished: residual=%.3g passed=%v\n", h.Residual, h.Passed)
	if !h.Passed {
		log.Fatal("HPL verification failed after restore")
	}
	fmt.Printf("reported wall time %v vs CPU time %v — the gap is the frozen interval\n",
		h.WallTime(), h.CPUTime())
}
