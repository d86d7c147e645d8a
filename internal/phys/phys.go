// Package phys models the physical substrate DVC virtualises: clusters of
// nodes with CPUs, RAM, disks and hardware clocks, plus fault injection.
//
// The paper's motivation (§1) is that hardware reliability will not
// improve, so software must hide faults. Nodes here crash, and everything
// running on them dies with them. A fault announced in advance ("when
// hardware faults can be predicted") is scripted by the experiment that
// needs it, not drawn by the injector.
//
// The substrate is built to be cheap at 10k nodes: a Node is a thin
// handle (site pointer + dense index) over struct-of-arrays state owned
// by the Site, hardware Specs are interned so ten thousand identical
// nodes share one record, and the node listings callers hit on scheduler
// and fault paths (Nodes, UpNodes) are maintained sorted indexes instead
// of map walks re-sorted per call.
package phys

import (
	"fmt"
	"sort"

	"dvc/internal/clock"
	"dvc/internal/netsim"
	"dvc/internal/sim"
)

// Spec describes one node's hardware.
//
// Specs are interned: AddCluster stores one copy of each distinct Spec in
// a site-level table and nodes reference it by index, so a 10k-node site
// with identical hardware holds one Spec, not 10k. The table is
// append-only and records are immutable — there is deliberately no
// Node.SetSpec, because writing through a shared record would silently
// retune every node that interned the same hardware. Model heterogeneous
// hardware by adding clusters with different Specs.
type Spec struct {
	// RAMBytes is physical memory; it bounds the RAM of hosted VMs.
	RAMBytes int64
}

// DefaultSpec matches a 2007-era dual-socket cluster node.
func DefaultSpec() Spec {
	return Spec{RAMBytes: 4 << 30}
}

// Node is one physical machine: a handle into the Site's
// struct-of-arrays node tables. Only the crash callbacks live on the
// handle itself; identity, placement, spec and health are site state.
type Node struct {
	site *Site
	idx  int32

	onCrash []*crashHook
}

// crashHook is one OnCrash registration; its identity is what the
// unregister func removes.
type crashHook struct{ fn func() }

// Stack returns the node's installed software stack label (empty =
// unspecified). Jobs that need a particular stack can only run natively
// on matching nodes — the constraint DVC's per-job virtual clusters
// remove.
func (n *Node) Stack() string { return n.site.clusterStack[n.site.cluster[n.idx]] }

// ID returns the node's identifier.
//
//dvc:hotpath
func (n *Node) ID() string { return n.site.ids[n.idx] }

// Index returns the node's dense site-wide index (creation order).
// Schedulers use it to keep per-node state in flat arrays instead of
// string-keyed maps.
//
//dvc:hotpath
func (n *Node) Index() int { return int(n.idx) }

// Cluster returns the name of the cluster the node belongs to.
func (n *Node) Cluster() string { return n.site.clusterName[n.site.cluster[n.idx]] }

// Spec returns the node's hardware description.
func (n *Node) Spec() Spec { return n.site.specs[n.site.spec[n.idx]] }

// Clock returns the node's hardware clock.
func (n *Node) Clock() *clock.Clock { return n.site.clks[n.idx] }

// Up reports whether the node is healthy.
//
//dvc:hotpath
func (n *Node) Up() bool { return n.site.up[n.idx] }

// OnCrash registers a callback invoked when the node fails, after every
// callback registered before it. The hypervisor uses this to kill hosted
// domains. The returned unregister removes the callback, keeping the
// others in registration order; an owner that dies before the node must
// call it, or the node keeps whatever the callback captures reachable.
// Unregister is idempotent; called from inside a crash callback, it takes
// effect from the next Fail.
func (n *Node) OnCrash(fn func()) (unregister func()) {
	h := &crashHook{fn: fn}
	n.onCrash = append(n.onCrash, h)
	return func() {
		for i, x := range n.onCrash {
			if x == h {
				// Copy into a fresh array: a Fail ranging over the old
				// one is undisturbed, and no array the node keeps still
				// holds the removed hook beyond its length.
				rest := make([]*crashHook, 0, len(n.onCrash)-1)
				n.onCrash = append(append(rest, n.onCrash[:i]...), n.onCrash[i+1:]...)
				return
			}
		}
	}
}

// Fail crashes the node: everything it hosts dies.
func (n *Node) Fail() {
	if !n.site.up[n.idx] {
		return
	}
	n.site.up[n.idx] = false
	for _, h := range n.onCrash {
		h.fn()
	}
}

// Repair brings the node back (empty: whatever it hosted is gone).
func (n *Node) Repair() {
	if n.site.up[n.idx] {
		return
	}
	n.site.up[n.idx] = true
}

// Site is a collection of clusters sharing a fabric — the multi-cluster
// environment DVC spans (paper Figure 1). Per-node state lives in
// parallel arrays indexed by each node's dense creation index; Node
// handles are stable pointers over those arrays.
type Site struct {
	Kernel *sim.Kernel
	Fabric *netsim.Fabric
	NTP    *clock.NTPDaemon

	clockCfg clock.Config

	// Interned cluster tables, indexed by cluster creation order.
	clusterIdx   map[string]int32
	clusterName  []string
	clusterStack []string

	// specs is the interned hardware table (see Spec).
	specs []Spec

	// Struct-of-arrays node state, indexed by dense node index.
	ids     []string
	cluster []int32
	spec    []int32
	up      []bool
	clks    []*clock.Clock
	handles []*Node

	byID map[string]int32

	// Maintained listings: sorted is every node ordered by ID;
	// byCluster/sortedByCluster are per-cluster views in creation and ID
	// order. They are rebuilt once per AddCluster, never per query.
	sorted          []*Node
	byCluster       [][]*Node
	sortedByCluster [][]*Node
}

// NewSite creates a site. The NTP daemon is created but not started;
// experiments choose whether clocks are disciplined (E1 runs without).
func NewSite(k *sim.Kernel, clockCfg clock.Config, ntpCfg clock.NTPConfig) *Site {
	return &Site{
		Kernel:     k,
		Fabric:     netsim.NewFabric(k),
		NTP:        clock.NewNTPDaemon(k, ntpCfg),
		clusterIdx: make(map[string]int32),
		byID:       make(map[string]int32),
		clockCfg:   clockCfg,
	}
}

// DefaultSite builds a site with commodity clocks and LAN NTP.
func DefaultSite(k *sim.Kernel) *Site {
	return NewSite(k, clock.DefaultConfig(), clock.DefaultNTPConfig())
}

// internSpec returns the index of spec in the interned table, adding it
// if unseen. The table stays tiny (one entry per distinct hardware
// class), so a linear scan beats any map.
func (s *Site) internSpec(spec Spec) int32 {
	for i, sp := range s.specs {
		if sp == spec {
			return int32(i)
		}
	}
	s.specs = append(s.specs, spec)
	return int32(len(s.specs) - 1)
}

// AddCluster creates a cluster of count identical nodes named
// "<name>-nNN", registers its link profile, and returns the nodes in
// creation order.
func (s *Site) AddCluster(name string, count int, spec Spec, profile netsim.LinkProfile) []*Node {
	if _, dup := s.clusterIdx[name]; dup {
		panic(fmt.Sprintf("phys: duplicate cluster %q", name))
	}
	s.Fabric.AddCluster(name, profile)
	ci := int32(len(s.clusterName))
	s.clusterIdx[name] = ci
	s.clusterName = append(s.clusterName, name)
	s.clusterStack = append(s.clusterStack, "")
	si := s.internSpec(spec)

	nodes := make([]*Node, count)
	for i := range nodes {
		idx := int32(len(s.ids))
		n := &Node{site: s, idx: idx}
		clk := clock.New(s.Kernel, s.clockCfg)
		s.NTP.Add(clk)
		s.ids = append(s.ids, fmt.Sprintf("%s-n%02d", name, i))
		s.cluster = append(s.cluster, ci)
		s.spec = append(s.spec, si)
		s.up = append(s.up, true)
		s.clks = append(s.clks, clk)
		s.handles = append(s.handles, n)
		s.byID[s.ids[idx]] = idx
		nodes[i] = n
	}
	s.byCluster = append(s.byCluster, nodes)

	// Maintain the sorted indexes. Within a cluster creation order is not
	// ID order once counts pass the zero-pad width ("x-n100" < "x-n99"),
	// so both views sort explicitly.
	clusterSorted := append([]*Node(nil), nodes...)
	sortNodesByID(clusterSorted)
	s.sortedByCluster = append(s.sortedByCluster, clusterSorted)
	s.sorted = append(s.sorted, nodes...)
	sortNodesByID(s.sorted)
	return nodes
}

// sortNodesByID orders node handles by their string ID.
func sortNodesByID(nodes []*Node) {
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].ID() < nodes[j].ID()
	})
}

// Cluster returns the nodes of a cluster in creation order.
func (s *Site) Cluster(name string) []*Node {
	ci, ok := s.clusterIdx[name]
	if !ok {
		return nil
	}
	return s.byCluster[ci]
}

// SetClusterStack labels every node of a cluster with a software stack
// (OS image, MPI build, libraries). Physical jobs demand stack equality;
// virtual clusters carry their own stack and do not care. The label is
// cluster-level state: one string per cluster, however many nodes.
func (s *Site) SetClusterStack(name, stack string) {
	if ci, ok := s.clusterIdx[name]; ok {
		s.clusterStack[ci] = stack
	}
}

// ClusterNames returns cluster names in creation order.
func (s *Site) ClusterNames() []string { return append([]string(nil), s.clusterName...) }

// NodeCount returns the number of nodes across all clusters.
func (s *Site) NodeCount() int { return len(s.ids) }

// Node finds a node by ID.
func (s *Site) Node(id string) (*Node, bool) {
	idx, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return s.handles[idx], true
}

// Nodes returns every node, sorted by ID. The slice is the site's
// maintained index — shared across calls, not to be modified by callers.
func (s *Site) Nodes() []*Node { return s.sorted }

// UpNodes returns the healthy nodes of a cluster (all clusters if name
// is empty), sorted by ID. The base listing is pre-sorted, so each call
// is one linear filter pass — no map walk, no sort.
func (s *Site) UpNodes(name string) []*Node {
	base := s.sorted
	if name != "" {
		ci, ok := s.clusterIdx[name]
		if !ok {
			return nil
		}
		base = s.sortedByCluster[ci]
	}
	out := make([]*Node, 0, len(base))
	for _, n := range base {
		if s.up[n.idx] {
			out = append(out, n)
		}
	}
	return out
}
