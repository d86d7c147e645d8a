package dvc

import (
	"runtime"
	"testing"
	"weak"

	"dvc/internal/guest"
	"dvc/internal/phys"
)

// Lifecycle gates. Every LSC cycle destroys each domain and restores it
// from its image, so each cycle retires one guest OS per VM. A retired
// guest must leave nothing behind: no kernel timer slot (the slab stays
// flat from the first cycle on) and no path that keeps the OS reachable
// (a weak pointer to it goes nil after a GC).

// lifecycleCycles is how many retire cycles each gate runs.
const lifecycleCycles = 20

// lifecycleBed is one VC running a ring halo that never finishes, plus
// the op that retires every guest in it.
type lifecycleBed struct {
	s  *Simulation
	vc *VirtualCluster
	op func() (*CheckpointResult, error)
}

// cycle runs one op, 1 s of traffic and a prune to the newest two
// generations, the shape of a perfbench op.
func (b *lifecycleBed) cycle(t *testing.T) {
	t.Helper()
	res, err := b.op()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("cycle failed: %s", res.Reason)
	}
	b.s.RunFor(Second)
	b.s.PruneCheckpoints(b.vc, 2)
}

func (b *lifecycleBed) boot(t *testing.T, spec VCSpec, period Time) {
	t.Helper()
	b.s.Start()
	vc, err := b.s.Allocate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b.vc = vc
	if _, err := vc.LaunchMPI(6000, func(int) App { return NewHalo(1<<30, period, 4096) }); err != nil {
		t.Fatal(err)
	}
	b.s.RunFor(Second)
}

// newFullLSCBed is lsc26's shape: 26 VMs on one cluster, full-image LSC.
func newFullLSCBed(t *testing.T) *lifecycleBed {
	s := NewSimulation(1)
	s.AddCluster("alpha", 26)
	b := &lifecycleBed{s: s}
	b.boot(t, VCSpec{Name: "full", Nodes: 26, VMRAM: 256 << 20}, 20*Millisecond)
	b.op = func() (*CheckpointResult, error) { return s.Checkpoint(b.vc) }
	return b
}

// newDeltaLSCBed runs delta-epoch LSC on 8 VMs in place.
func newDeltaLSCBed(t *testing.T) *lifecycleBed {
	s := NewSimulation(2)
	cfg := NTPLSC()
	cfg.Delta = true
	s.SetLSC(cfg)
	s.AddCluster("alpha", 8)
	b := &lifecycleBed{s: s}
	b.boot(t, VCSpec{Name: "delta", Nodes: 8, VMRAM: 256 << 20}, 200*Millisecond)
	b.op = func() (*CheckpointResult, error) { return s.Checkpoint(b.vc) }
	return b
}

// newMigrateBed is delta-migrate's shape: an 8-VM VC migrated back and
// forth between two datacenters on the delta path.
func newMigrateBed(t *testing.T) *lifecycleBed {
	s := NewSimulation(3)
	cfg := NTPLSC()
	cfg.Delta = true
	s.SetLSC(cfg)
	if _, err := phys.BuildTopo(s.Site(), phys.TopoSpec{DCs: 2, ClustersPerDC: 1, HostsPerCluster: 8}); err != nil {
		t.Fatal(err)
	}
	s.Manager().AdoptNodes()
	b := &lifecycleBed{s: s}
	b.boot(t, VCSpec{Name: "mig", Nodes: 8, VMRAM: 256 << 20, Clusters: []string{phys.ClusterName(0, 0)}}, 200*Millisecond)
	at := 0
	b.op = func() (*CheckpointResult, error) {
		at = 1 - at
		return s.Migrate(b.vc, s.Site().UpNodes(phys.ClusterName(at, 0)))
	}
	return b
}

var lifecycleBeds = []struct {
	name string
	make func(*testing.T) *lifecycleBed
}{
	{"full", newFullLSCBed},
	{"delta", newDeltaLSCBed},
	{"migrate", newMigrateBed},
}

// TestRetireCyclesHoldSlabFlat: the kernel slab is exactly as long after
// the last cycle as after the first. Slab length is deterministic, so the
// gate is exact and also holds under -race.
func TestRetireCyclesHoldSlabFlat(t *testing.T) {
	for _, bed := range lifecycleBeds {
		t.Run(bed.name, func(t *testing.T) {
			b := bed.make(t)
			k := b.s.Manager().Kernel()
			b.cycle(t)
			first := k.SlabLen()
			for i := 1; i < lifecycleCycles; i++ {
				b.cycle(t)
			}
			if got := k.SlabLen(); got != first {
				t.Fatalf("slab %d slots after cycle 1, %d after cycle %d: retired guests keep their timers",
					first, got, lifecycleCycles)
			}
		})
	}
}

// TestRetiredGuestsAreCollected holds a weak pointer to every guest OS a
// cycle retires; after a GC every one must be gone.
func TestRetiredGuestsAreCollected(t *testing.T) {
	for _, bed := range lifecycleBeds {
		t.Run(bed.name, func(t *testing.T) {
			b := bed.make(t)
			var retired []weak.Pointer[guest.OS]
			for i := 0; i < lifecycleCycles; i++ {
				before := make(map[weak.Pointer[guest.OS]]bool)
				for _, os := range b.vc.OSes() {
					before[weak.Make(os)] = true
				}
				b.cycle(t)
				for _, os := range b.vc.OSes() {
					if before[weak.Make(os)] {
						t.Fatalf("cycle %d left a guest OS in place", i)
					}
				}
				for wp := range before {
					retired = append(retired, wp)
				}
			}
			live := liveCount(retired)
			// The bed (kernel, site, store) must outlive the count, or the
			// whole simulation is garbage and the gate proves nothing.
			runtime.KeepAlive(b)
			if live != 0 {
				t.Fatalf("%d of %d retired guest OSes still reachable after GC", live, len(retired))
			}
		})
	}
}

// liveCount collects garbage and counts the weak pointers still set.
func liveCount(ps []weak.Pointer[guest.OS]) int {
	runtime.GC()
	runtime.GC()
	n := 0
	for _, p := range ps {
		if p.Value() != nil {
			n++
		}
	}
	return n
}
