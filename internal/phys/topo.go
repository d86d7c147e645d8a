package phys

import (
	"fmt"

	"dvc/internal/netsim"
	"dvc/internal/sim"
)

// TopoSpec sizes a generated topology the way vcsim sizes a vCenter
// inventory: datacenters compose clusters compose hosts (the SCALE and
// PSCALE experiments' shapes). Every node has the DefaultSpec hardware
// on a gigabit Ethernet leaf. Each datacenter is a fabric zone; its
// clusters hang off a fat-tree spine (netsim.FatTreeSpine), and
// datacenters join over a WAN profile (netsim.MultiDatacenterWAN) — the
// two or three orders of magnitude beyond the paper's 26 nodes that
// cluster-scale simulation needs.
type TopoSpec struct {
	// DCs is the number of datacenters (fabric zones). Minimum 1.
	DCs int
	// ClustersPerDC is the number of clusters per datacenter. Minimum 1.
	ClustersPerDC int
	// HostsPerCluster is the number of nodes per cluster. Minimum 1.
	HostsPerCluster int
}

// validate checks the counts.
func (t TopoSpec) validate() error {
	if t.DCs <= 0 || t.ClustersPerDC <= 0 || t.HostsPerCluster <= 0 {
		return fmt.Errorf("phys: topology needs dc, cluster and host counts >= 1 (got %d/%d/%d)",
			t.DCs, t.ClustersPerDC, t.HostsPerCluster)
	}
	return nil
}

// setInterProfiles installs the spine and WAN profiles on a fabric.
func setInterProfiles(f *netsim.Fabric) {
	f.SetInterCluster(netsim.FatTreeSpine())
	f.SetInterZone(netsim.MultiDatacenterWAN())
}

// Topology records what BuildTopo generated.
type Topology struct {
	// Clusters holds generated cluster names in creation order
	// ("dc00-c00", "dc00-c01", ...). Node IDs follow the AddCluster
	// convention: "<cluster>-nNN".
	Clusters []string
}

// ClusterName returns the canonical generated name of cluster c in
// datacenter d.
func ClusterName(d, c int) string { return fmt.Sprintf("dc%02d-c%02d", d, c) }

// BuildTopo generates the spec's inventory into the site: one cluster per
// (datacenter, cluster) pair, every cluster zoned to its datacenter, and
// the fabric's spine/WAN profiles installed. Creation order is
// deterministic (datacenter-major), so same spec + same kernel seed means
// an identical inventory and identical downstream RNG draws.
func BuildTopo(site *Site, spec TopoSpec) (*Topology, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	setInterProfiles(site.Fabric)
	topo := &Topology{Clusters: make([]string, 0, spec.DCs*spec.ClustersPerDC)}
	for d := 0; d < spec.DCs; d++ {
		for c := 0; c < spec.ClustersPerDC; c++ {
			name := ClusterName(d, c)
			site.AddCluster(name, spec.HostsPerCluster, DefaultSpec(), netsim.EthernetGigE())
			if err := site.Fabric.SetClusterZone(name, d); err != nil {
				return nil, err
			}
			topo.Clusters = append(topo.Clusters, name)
		}
	}
	return topo, nil
}

// BuildTopoZones generates the slice of spec's inventory owned by the
// given datacenters into the site — one partition of a partitioned run.
// Clusters of the listed DCs are created for real (nodes, clocks, NTP);
// every other cluster is registered fabric-only (profile + zone, no
// nodes), so link-profile resolution — and therefore the cross-partition
// latency/bandwidth math on the send side — is identical on every
// partition's fabric. Registration order is the same datacenter-major
// order BuildTopo uses, restricted creation included, so a partition's
// inventory is a pure function of (spec, dcs). It returns the locally
// created cluster names in creation order.
func BuildTopoZones(site *Site, spec TopoSpec, dcs ...int) ([]string, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	local := make(map[int]bool, len(dcs))
	for _, d := range dcs {
		if d < 0 || d >= spec.DCs {
			return nil, fmt.Errorf("phys: datacenter %d out of range [0,%d)", d, spec.DCs)
		}
		local[d] = true
	}
	setInterProfiles(site.Fabric)
	var owned []string
	for d := 0; d < spec.DCs; d++ {
		for c := 0; c < spec.ClustersPerDC; c++ {
			name := ClusterName(d, c)
			if local[d] {
				site.AddCluster(name, spec.HostsPerCluster, DefaultSpec(), netsim.EthernetGigE())
				owned = append(owned, name)
			} else {
				site.Fabric.AddCluster(name, netsim.EthernetGigE())
			}
			if err := site.Fabric.SetClusterZone(name, d); err != nil {
				return nil, err
			}
		}
	}
	return owned, nil
}

// ZoneLookahead computes the conservative lookahead for a run of spec
// partitioned on datacenter (zone) boundaries: the minimum latency of
// any link profile joining clusters of different zones, extracted from
// the same profile matrix the packets will use (netsim.MinCrossLatency
// over a scratch fabric). Zero when the spec has a single datacenter —
// there is no cross-partition traffic to bound.
func ZoneLookahead(spec TopoSpec) (sim.Time, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	f := netsim.NewFabric(sim.NewKernel(0))
	setInterProfiles(f)
	for d := 0; d < spec.DCs; d++ {
		for c := 0; c < spec.ClustersPerDC; c++ {
			name := ClusterName(d, c)
			f.AddCluster(name, netsim.EthernetGigE())
			if err := f.SetClusterZone(name, d); err != nil {
				return 0, err
			}
		}
	}
	return f.MinCrossLatency(f.ClusterZone), nil
}
