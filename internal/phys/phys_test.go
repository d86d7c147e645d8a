package phys

import (
	"testing"

	"dvc/internal/netsim"
	"dvc/internal/sim"
)

func TestAddClusterCreatesNamedNodes(t *testing.T) {
	k := sim.NewKernel(1)
	s := DefaultSite(k)
	nodes := s.AddCluster("alpha", 4, DefaultSpec(), netsim.EthernetGigE())
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	if nodes[0].ID() != "alpha-n00" || nodes[3].ID() != "alpha-n03" {
		t.Fatalf("node ids %s..%s", nodes[0].ID(), nodes[3].ID())
	}
	if nodes[0].Cluster() != "alpha" {
		t.Fatal("wrong cluster name")
	}
	if !nodes[0].Up() {
		t.Fatal("fresh node should be up")
	}
	if n, ok := s.Node("alpha-n02"); !ok || n != nodes[2] {
		t.Fatal("Node lookup failed")
	}
}

func TestDuplicateClusterPanics(t *testing.T) {
	k := sim.NewKernel(1)
	s := DefaultSite(k)
	s.AddCluster("a", 1, DefaultSpec(), netsim.EthernetGigE())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate cluster did not panic")
		}
	}()
	s.AddCluster("a", 1, DefaultSpec(), netsim.EthernetGigE())
}

func TestNodesSortedAcrossClusters(t *testing.T) {
	k := sim.NewKernel(1)
	s := DefaultSite(k)
	s.AddCluster("beta", 2, DefaultSpec(), netsim.EthernetGigE())
	s.AddCluster("alpha", 2, DefaultSpec(), netsim.EthernetGigE())
	nodes := s.Nodes()
	if len(nodes) != 4 || nodes[0].ID() != "alpha-n00" || nodes[3].ID() != "beta-n01" {
		t.Fatalf("unexpected order: %v, %v", nodes[0].ID(), nodes[3].ID())
	}
	if got := s.ClusterNames(); got[0] != "beta" || got[1] != "alpha" {
		t.Fatalf("ClusterNames order %v", got)
	}
}

// TestOnCrashUnregister: unregistering keeps the other hooks in
// registration order, is idempotent, drops the node's last reference to
// the hook, and, called from inside a crash callback, takes effect from
// the next Fail.
func TestOnCrashUnregister(t *testing.T) {
	k := sim.NewKernel(1)
	s := DefaultSite(k)
	n := s.AddCluster("a", 1, DefaultSpec(), netsim.EthernetGigE())[0]
	var got string
	var unC func()
	n.OnCrash(func() { got += "a"; unC() })
	unB := n.OnCrash(func() { got += "b" })
	unC = n.OnCrash(func() { got += "c" })
	unD := n.OnCrash(func() { got += "d" })
	unB()
	unB()
	n.Fail()
	if got != "acd" {
		t.Fatalf("first crash ran %q, want acd", got)
	}
	n.Repair()
	got = ""
	n.Fail()
	if got != "ad" {
		t.Fatalf("second crash ran %q, want ad", got)
	}
	unD()
	if len(n.onCrash) != 1 || cap(n.onCrash) != 1 {
		t.Fatalf("hooks len %d cap %d after unregistering all but one", len(n.onCrash), cap(n.onCrash))
	}
}

func TestFailAndRepairCallbacks(t *testing.T) {
	k := sim.NewKernel(1)
	s := DefaultSite(k)
	n := s.AddCluster("a", 1, DefaultSpec(), netsim.EthernetGigE())[0]
	crashed := 0
	n.OnCrash(func() { crashed++ })
	n.Fail()
	n.Fail() // idempotent
	if crashed != 1 || n.Up() {
		t.Fatalf("crashed=%d up=%v", crashed, n.Up())
	}
	n.Repair()
	n.Repair()
	if !n.Up() {
		t.Fatal("repaired node is down")
	}
}

func TestUpNodesFiltersFailed(t *testing.T) {
	k := sim.NewKernel(1)
	s := DefaultSite(k)
	nodes := s.AddCluster("a", 3, DefaultSpec(), netsim.EthernetGigE())
	s.AddCluster("b", 2, DefaultSpec(), netsim.EthernetGigE())
	nodes[1].Fail()
	if got := len(s.UpNodes("a")); got != 2 {
		t.Fatalf("UpNodes(a) = %d, want 2", got)
	}
	if got := len(s.UpNodes("")); got != 4 {
		t.Fatalf("UpNodes(all) = %d, want 4", got)
	}
}

func TestNTPCoversAllNodeClocks(t *testing.T) {
	k := sim.NewKernel(2)
	s := DefaultSite(k)
	s.AddCluster("a", 8, DefaultSpec(), netsim.EthernetGigE())
	s.NTP.Start()
	k.RunFor(sim.Second)
	lo, hi := sim.MaxTime, -sim.MaxTime
	for _, n := range s.Nodes() {
		e := n.Clock().Error()
		lo, hi = min(lo, e), max(hi, e)
	}
	if e := hi - lo; e > 20*sim.Millisecond {
		t.Fatalf("pairwise clock error %v after NTP sync", e)
	}
}

func TestInjectorCrashesNodes(t *testing.T) {
	k := sim.NewKernel(3)
	s := DefaultSite(k)
	nodes := s.AddCluster("a", 10, DefaultSpec(), netsim.EthernetGigE())
	in := NewInjector(k, InjectorConfig{MTBF: sim.Hour})
	var crashedIDs []string
	in.OnCrash = func(n *Node) { crashedIDs = append(crashedIDs, n.ID()) }
	in.Start(nodes)
	k.RunUntil(10 * sim.Hour)
	if in.Crashes() == 0 {
		t.Fatal("no crashes in 10 node-hours x 10 nodes at 1h MTBF")
	}
	if in.Crashes() != len(crashedIDs) {
		t.Fatal("callback count mismatch")
	}
	up := 0
	for _, n := range nodes {
		if n.Up() {
			up++
		}
	}
	if up+in.Crashes() < len(nodes) {
		t.Fatal("accounting broken: some nodes neither up nor crashed")
	}
}

func TestInjectorRepairBringsNodesBack(t *testing.T) {
	k := sim.NewKernel(4)
	s := DefaultSite(k)
	nodes := s.AddCluster("a", 5, DefaultSpec(), netsim.EthernetGigE())
	in := NewInjector(k, InjectorConfig{MTBF: sim.Hour, RepairTime: 10 * sim.Minute})
	in.Start(nodes)
	k.RunUntil(100 * sim.Hour)
	if in.Crashes() < 5 {
		t.Fatalf("only %d crashes in 100h", in.Crashes())
	}
	up := 0
	for _, n := range nodes {
		if n.Up() {
			up++
		}
	}
	// With MTBF 1h and repair 10min, most nodes should be up at any time.
	if up < 3 {
		t.Fatalf("only %d/5 nodes up with fast repair", up)
	}
}

func TestInjectorStop(t *testing.T) {
	k := sim.NewKernel(6)
	s := DefaultSite(k)
	nodes := s.AddCluster("a", 5, DefaultSpec(), netsim.EthernetGigE())
	in := NewInjector(k, InjectorConfig{MTBF: sim.Minute})
	in.Start(nodes)
	in.Stop()
	k.RunUntil(10 * sim.Hour)
	if in.Crashes() != 0 {
		t.Fatalf("stopped injector crashed %d nodes", in.Crashes())
	}
}

func TestDefaultSpecSane(t *testing.T) {
	sp := DefaultSpec()
	if sp.RAMBytes <= 0 {
		t.Fatalf("bad default spec %+v", sp)
	}
}
