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

// interZone is the profile joining clusters of different datacenters:
// setInterProfiles installs it and ZoneLookahead bounds by its latency.
var interZone = netsim.MultiDatacenterWAN()

// setInterProfiles installs the spine and WAN profiles on a fabric.
func setInterProfiles(f *netsim.Fabric) {
	f.SetInterCluster(netsim.FatTreeSpine())
	f.SetInterZone(interZone)
}

// ClusterName returns the canonical generated name of cluster c in
// datacenter d. Node IDs follow the AddCluster convention:
// "<cluster>-nNN".
func ClusterName(d, c int) string { return fmt.Sprintf("dc%02d-c%02d", d, c) }

// BuildTopo generates the spec's inventory into the site: one cluster
// per (datacenter, cluster) pair, every cluster zoned to its datacenter,
// and the fabric's spine/WAN profiles installed. Clusters of the listed
// datacenters (every datacenter when dcs is empty) are created for real:
// nodes, clocks, NTP. Every other cluster is registered fabric-only
// (profile and zone, no nodes), which builds one partition of a
// partitioned run: link-profile resolution, and with it the
// cross-partition send math, is then identical on every partition's
// fabric. Creation order is deterministic (datacenter-major), so the
// same spec, dcs and kernel seed give an identical inventory and
// identical downstream RNG draws. It returns the created cluster names
// in creation order ("dc00-c00", "dc00-c01", ...).
func BuildTopo(site *Site, spec TopoSpec, dcs ...int) ([]string, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	local := make([]bool, spec.DCs)
	for _, d := range dcs {
		if d < 0 || d >= spec.DCs {
			return nil, fmt.Errorf("phys: datacenter %d out of range [0,%d)", d, spec.DCs)
		}
		local[d] = true
	}
	setInterProfiles(site.Fabric)
	var created []string
	for d := 0; d < spec.DCs; d++ {
		for c := 0; c < spec.ClustersPerDC; c++ {
			name := ClusterName(d, c)
			if len(dcs) == 0 || local[d] {
				site.AddCluster(name, spec.HostsPerCluster, DefaultSpec(), netsim.EthernetGigE())
				created = append(created, name)
			} else {
				site.Fabric.AddCluster(name, netsim.EthernetGigE())
			}
			if err := site.Fabric.SetClusterZone(name, d); err != nil {
				return nil, err
			}
		}
	}
	return created, nil
}

// ZoneLookahead computes the conservative lookahead for a run of spec
// partitioned on datacenter (zone) boundaries: clusters of different
// zones are joined only by the inter-zone profile setInterProfiles
// installs, so its latency is the smallest cross-partition delay. Zero
// when the spec has a single datacenter: there is no cross-partition
// traffic to bound.
func ZoneLookahead(spec TopoSpec) (sim.Time, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	if spec.DCs == 1 {
		return 0, nil
	}
	return interZone.Latency, nil
}
