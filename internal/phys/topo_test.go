package phys

import (
	"slices"
	"testing"

	"dvc/internal/netsim"
	"dvc/internal/sim"
)

func buildTestTopo(t *testing.T, seed int64, spec TopoSpec) (*Site, []string) {
	t.Helper()
	k := sim.NewKernel(seed)
	s := DefaultSite(k)
	clusters, err := BuildTopo(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	return s, clusters
}

func TestBuildTopoInventory(t *testing.T) {
	spec := TopoSpec{DCs: 2, ClustersPerDC: 3, HostsPerCluster: 5}
	s, clusters := buildTestTopo(t, 1, spec)
	if got := s.NodeCount(); got != 30 {
		t.Fatalf("NodeCount = %d, want 30", got)
	}
	if len(clusters) != 6 || clusters[0] != "dc00-c00" || clusters[5] != "dc01-c02" {
		t.Fatalf("cluster names %v", clusters)
	}
	if _, ok := s.Node("dc01-c02-n04"); !ok {
		t.Fatal("last generated node missing")
	}
	// Zones follow datacenters.
	checkZones(t, s.Fabric, spec)
}

// checkZones attaches a probe port in every generated cluster and checks
// every pair: two clusters sit across the WAN exactly when their
// datacenters differ, and across the spine otherwise. That holds only if
// every cluster is zoned to its own datacenter.
func checkZones(t *testing.T, f *netsim.Fabric, spec TopoSpec) {
	t.Helper()
	probe := func(d, c int) netsim.Addr { return netsim.Addr("zone-probe-" + ClusterName(d, c)) }
	for d := 0; d < spec.DCs; d++ {
		for c := 0; c < spec.ClustersPerDC; c++ {
			f.Attach(probe(d, c), ClusterName(d, c), nil)
		}
	}
	for da := 0; da < spec.DCs; da++ {
		for ca := 0; ca < spec.ClustersPerDC; ca++ {
			for db := 0; db < spec.DCs; db++ {
				for cb := 0; cb < spec.ClustersPerDC; cb++ {
					if da == db && ca == cb {
						continue
					}
					lat, err := f.Delay(probe(da, ca), probe(db, cb), 0)
					if err != nil {
						t.Fatal(err)
					}
					want := netsim.FatTreeSpine().Latency
					if da != db {
						want = netsim.MultiDatacenterWAN().Latency
					}
					if lat != want {
						t.Fatalf("%s -> %s delay %v, want %v: a cluster is zoned to the wrong datacenter",
							ClusterName(da, ca), ClusterName(db, cb), lat, want)
					}
				}
			}
		}
	}
}

// TestBuildTopoDeterministic is the generator's determinism property:
// same spec + same seed must produce identical clusters — names and
// order — and identical node listings.
func TestBuildTopoDeterministic(t *testing.T) {
	spec := TopoSpec{DCs: 2, ClustersPerDC: 3, HostsPerCluster: 7}
	s1, clusters1 := buildTestTopo(t, 42, spec)
	s2, clusters2 := buildTestTopo(t, 42, spec)
	if !slices.Equal(clusters1, clusters2) {
		t.Fatalf("clusters diverge: %v vs %v", clusters1, clusters2)
	}
	n1, n2 := s1.Nodes(), s2.Nodes()
	if len(n1) != len(n2) {
		t.Fatalf("node counts diverge: %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i].ID() != n2[i].ID() || n1[i].Cluster() != n2[i].Cluster() {
			t.Fatalf("node %d diverges: %s/%s vs %s/%s",
				i, n1[i].ID(), n1[i].Cluster(), n2[i].ID(), n2[i].Cluster())
		}
	}
	// The per-node clocks draw from the kernel RNG in creation order, so
	// identical builds leave identical clock errors behind.
	for i := range n1 {
		if n1[i].Clock().Error() != n2[i].Clock().Error() {
			t.Fatalf("clock error diverges at node %d", i)
		}
	}
}

// TestTopoLinkTiers pins the three-tier profile selection: intra-cluster
// beats same-DC cross-cluster beats cross-DC.
func TestTopoLinkTiers(t *testing.T) {
	spec := TopoSpec{DCs: 2, ClustersPerDC: 2, HostsPerCluster: 1}
	s, _ := buildTestTopo(t, 7, spec)
	f := s.Fabric
	f.Attach("intra-a", "dc00-c00", nil)
	f.Attach("intra-b", "dc00-c00", nil)
	f.Attach("spine-b", "dc00-c01", nil)
	f.Attach("wan-b", "dc01-c00", nil)

	intra, err := f.Delay("intra-a", "intra-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	spine, err := f.Delay("intra-a", "spine-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	wan, err := f.Delay("intra-a", "wan-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(intra < spine && spine < wan) {
		t.Fatalf("latency tiers out of order: intra=%v spine=%v wan=%v", intra, spine, wan)
	}
	if intra != netsim.EthernetGigE().Latency {
		t.Fatalf("intra latency %v, want leaf profile %v", intra, netsim.EthernetGigE().Latency)
	}
	if spine != netsim.FatTreeSpine().Latency {
		t.Fatalf("spine latency %v, want %v", spine, netsim.FatTreeSpine().Latency)
	}
	if wan != netsim.MultiDatacenterWAN().Latency {
		t.Fatalf("wan latency %v, want %v", wan, netsim.MultiDatacenterWAN().Latency)
	}
}

// TestBuildTopoZones: BuildTopo with a datacenter list creates real
// nodes only for those datacenters but registers every cluster (profile
// and zone) on its fabric, so link resolution matches the full build on
// both sides of the partition boundary.
func TestBuildTopoZones(t *testing.T) {
	spec := TopoSpec{DCs: 3, ClustersPerDC: 2, HostsPerCluster: 4}
	k := sim.NewKernel(9)
	s := DefaultSite(k)
	owned, err := BuildTopo(s, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(owned) != 2 || owned[0] != "dc01-c00" || owned[1] != "dc01-c01" {
		t.Fatalf("owned clusters %v, want dc01's two clusters", owned)
	}
	if got := s.NodeCount(); got != 8 {
		t.Fatalf("NodeCount = %d, want 8 (one DC of nodes)", got)
	}
	if _, ok := s.Node("dc00-c00-n00"); ok {
		t.Fatal("remote datacenter's node exists locally")
	}
	// Every cluster, owned or remote, is zoned on the slice's fabric, and
	// a local port resolves the WAN profile toward a remote-only cluster
	// exactly as the full build's fabric would.
	checkZones(t, s.Fabric, spec)
	if _, err := BuildTopo(DefaultSite(sim.NewKernel(9)), spec, 3); err == nil {
		t.Fatal("out-of-range datacenter accepted")
	}
}

// TestZoneLookahead pins the conservative lookahead to the WAN latency —
// zones only touch over the WAN profile — and to zero when one zone owns
// everything.
func TestZoneLookahead(t *testing.T) {
	spec := TopoSpec{DCs: 4, ClustersPerDC: 2, HostsPerCluster: 1}
	la, err := ZoneLookahead(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The bound must be the delay the built fabric actually gives
	// between datacenters, not a separately named constant.
	s, _ := buildTestTopo(t, 3, spec)
	s.Fabric.Attach("la-a", ClusterName(0, 0), nil)
	s.Fabric.Attach("la-b", ClusterName(3, 1), nil)
	wan, err := s.Fabric.Delay("la-a", "la-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if la != wan {
		t.Fatalf("ZoneLookahead = %v, want the fabric's cross-datacenter delay %v", la, wan)
	}
	la, err = ZoneLookahead(TopoSpec{DCs: 1, ClustersPerDC: 4, HostsPerCluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	if la != 0 {
		t.Fatalf("single-zone ZoneLookahead = %v, want 0", la)
	}
}

func TestBuildTopoRejectsBadCounts(t *testing.T) {
	k := sim.NewKernel(1)
	s := DefaultSite(k)
	if _, err := BuildTopo(s, TopoSpec{DCs: 1, ClustersPerDC: 0, HostsPerCluster: 3}); err == nil {
		t.Fatal("zero cluster count accepted")
	}
}

func TestSpecInterning(t *testing.T) {
	k := sim.NewKernel(1)
	s := DefaultSite(k)
	s.AddCluster("a", 50, DefaultSpec(), netsim.EthernetGigE())
	s.AddCluster("b", 50, DefaultSpec(), netsim.EthernetGigE())
	big := DefaultSpec()
	big.RAMBytes *= 2
	s.AddCluster("c", 50, big, netsim.EthernetGigE())
	if got := len(s.specs); got != 2 {
		t.Fatalf("interned %d specs for 150 nodes of 2 hardware classes, want 2", got)
	}
	if s.Cluster("b")[0].Spec() != DefaultSpec() {
		t.Fatal("shared spec does not round-trip")
	}
	if s.Cluster("c")[0].Spec() != big {
		t.Fatal("second spec does not round-trip")
	}
}
