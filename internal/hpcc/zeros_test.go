package hpcc_test

import (
	"testing"

	"dvc"
	"dvc/internal/hpcc"
)

// TestHaloZerosStayZero is the immutability guard for the shared halo
// body. Every halo message references haloZeros by slice, through mpi
// framing, guest sockets, TCP rings, the wire, LSC freeze/snapshot and
// image encode, and restore on new hosts. It runs a halo bed through a
// save/restore cycle and a migration, lets the job finish, and requires
// the array to be all zero afterwards: a layer that wrote into a chunk it
// was handed would show up here.
//
// The array is also read concurrently, by partitioned-engine workers and
// by fleet trials on separate goroutines. That is safe only because
// nothing ever writes it; TestPartitionedMatchesSerial under -race covers
// the concurrent reads.
func TestHaloZerosStayZero(t *testing.T) {
	s := dvc.NewSimulation(11)
	s.AddCluster("alpha", 4)
	s.AddCluster("beta", 4)
	s.Start()
	vc := s.MustAllocate(dvc.VCSpec{Name: "zeros", Nodes: 4, VMRAM: 256 << 20, Clusters: []string{"alpha"}})
	if _, err := vc.LaunchMPI(6000, func(int) dvc.App { return dvc.NewHalo(300, 20*dvc.Millisecond, 4096) }); err != nil {
		t.Fatal(err)
	}
	s.RunFor(dvc.Second)
	s.MustCheckpoint(vc)
	s.RunFor(dvc.Second)
	if res, err := s.Migrate(vc, s.FreeNodes("beta")); err != nil || !res.OK {
		t.Fatalf("migrate: %v, %+v", err, res)
	}
	if js := s.RunUntilJobDone(vc, dvc.Hour); !js.AllOK() {
		t.Fatalf("halo job failed: %+v", js)
	}
	for i, b := range hpcc.HaloZeros() {
		if b != 0 {
			t.Fatalf("shared halo body byte %d = %#x after save/restore and migration; a layer wrote into a chunk it was handed", i, b)
		}
	}
}
