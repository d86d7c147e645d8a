// Multi-cluster spanning: a single parallel job runs across two physical
// clusters inside one virtual cluster — DVC goals 2 and 3. The VMs give
// every rank the same software stack regardless of which cluster hosts
// it, and the fabric routes inter-cluster traffic over the slower
// campus link.
package main

import (
	"fmt"
	"log"

	"dvc"
	"dvc/internal/hpcc"
)

func main() {
	s := dvc.NewSimulation(11)
	// Two small clusters: neither can host a 10-wide job alone.
	s.AddCluster("alpha", 6)
	s.AddCluster("beta", 6)
	s.Start()

	vc := s.MustAllocate(dvc.VCSpec{Name: "wide", Nodes: 10, VMRAM: 256 << 20})
	if !vc.SpansClusters() {
		log.Fatal("expected the placement to span clusters")
	}
	perCluster := map[string]int{}
	for _, n := range vc.PhysicalNodes() {
		perCluster[n.Cluster()]++
	}
	fmt.Printf("10-way virtual cluster spans: %v\n", perCluster)

	// The job is an ordinary MPI program; ranks on different clusters
	// just see slightly higher latency to some peers.
	vc.LaunchMPI(6000, func(int) dvc.App { return dvc.NewHPL(120, 11, 1e-4) })
	js := s.RunUntilJobDone(vc, 2*dvc.Hour)
	if !js.AllOK() {
		log.Fatalf("spanning job failed: %+v", js)
	}
	h := vc.RankApps()[0].(*hpcc.HPL)
	fmt.Printf("HPL across clusters: residual=%.3g passed=%v wall=%v\n",
		h.Residual, h.Passed, h.WallTime())
	if !h.Passed {
		log.Fatal("HPL verification failed across clusters")
	}

	// And the spanning VC is still checkpointable as one unit.
	s.RunFor(dvc.Second)
	vc2 := s.MustAllocate(dvc.VCSpec{Name: "wide2", Nodes: 10, VMRAM: 256 << 20})
	vc2.LaunchMPI(6000, func(int) dvc.App { return dvc.NewHalo(3000, 20*dvc.Millisecond, 2048) })
	s.RunFor(2 * dvc.Second)
	res, err := s.Checkpoint(vc2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cross-cluster checkpoint: skew=%v ok=%v\n", res.SaveSkew, res.OK)
	if !res.OK {
		log.Fatalf("cross-cluster checkpoint failed: %s", res.Reason)
	}
	if !s.RunUntilJobDone(vc2, 2*dvc.Hour).AllOK() {
		log.Fatal("checkpointed spanning job failed")
	}
	fmt.Println("spanning virtual cluster checkpointed and completed")
}
