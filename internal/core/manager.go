// Package core implements Dynamic Virtual Clustering — the paper's
// primary contribution: per-job virtual clusters of Xen domains mapped
// onto (and across) physical clusters, plus Lazy Synchronous
// Checkpointing (LSC), the coordinated whole-cluster save that gives
// completely transparent parallel checkpoint/restart.
package core

import (
	"fmt"

	"dvc/internal/guest"
	"dvc/internal/mpi"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/storage"
	"dvc/internal/tcp"
	"dvc/internal/vm"
)

// VCState is a virtual cluster's lifecycle state.
type VCState int

// Virtual cluster states.
const (
	VCAllocating VCState = iota
	VCReady
	VCPaused
	VCMigrating // pre-copy live migration in progress
	VCSaved
	VCFailed
	VCReleased
)

func (s VCState) String() string {
	switch s {
	case VCAllocating:
		return "Allocating"
	case VCReady:
		return "Ready"
	case VCPaused:
		return "Paused"
	case VCMigrating:
		return "Migrating"
	case VCSaved:
		return "Saved"
	case VCFailed:
		return "Failed"
	case VCReleased:
		return "Released"
	default:
		return fmt.Sprintf("VCState(%d)", int(s))
	}
}

// VCSpec describes the virtual cluster a job wants: DVC's first goal is
// that this is independent of any physical cluster's software stack.
type VCSpec struct {
	Name  string
	Nodes int
	VMRAM int64
	// Clusters lists candidate physical clusters in preference order;
	// empty means any. A VC spans clusters when no single one has
	// enough free nodes (paper goal 3).
	Clusters []string
	// Watchdog configures the guest software watchdog.
	Watchdog guest.WatchdogConfig
}

// VirtualCluster is a set of domains acting as one cluster for a job.
type VirtualCluster struct {
	mgr   *Manager
	spec  VCSpec
	state VCState

	domains []*vm.Domain
	nodes   []*phys.Node
	nextGen int
}

// Name returns the VC's name.
func (vc *VirtualCluster) Name() string { return vc.spec.Name }

// Spec returns the VC's specification.
func (vc *VirtualCluster) Spec() VCSpec { return vc.spec }

// State returns the VC's state.
func (vc *VirtualCluster) State() VCState { return vc.state }

// Domains returns the VC's domains indexed by virtual node id.
func (vc *VirtualCluster) Domains() []*vm.Domain { return vc.domains }

// PhysicalNodes returns the current placement.
func (vc *VirtualCluster) PhysicalNodes() []*phys.Node { return vc.nodes }

// OSes returns the guest OS of every domain (only valid when Ready).
func (vc *VirtualCluster) OSes() []*guest.OS {
	out := make([]*guest.OS, len(vc.domains))
	for i, d := range vc.domains {
		out[i] = d.OS()
	}
	return out
}

// DomainAddr returns the stable address of virtual node i.
func (vc *VirtualCluster) DomainAddr(i int) netsim.Addr {
	return netsim.Addr(fmt.Sprintf("%s-vm%02d", vc.spec.Name, i))
}

// Teardown destroys all domains but keeps the VC registered, so a saved
// generation can be restored onto fresh nodes (failure recovery).
func (vc *VirtualCluster) Teardown() {
	for _, d := range vc.domains {
		d.Destroy()
	}
	vc.state = VCSaved
}

// Release destroys all domains and frees the placement.
func (vc *VirtualCluster) Release() {
	for _, d := range vc.domains {
		d.Destroy()
	}
	vc.state = VCReleased
	delete(vc.mgr.vcs, vc.spec.Name)
}

// JobStatus summarises the processes running across the VC.
type JobStatus struct {
	Running   int
	Succeeded int
	Failed    int
}

// Done reports whether every process has exited.
func (js JobStatus) Done() bool { return js.Running == 0 }

// AllOK reports whether every process exited successfully.
func (js JobStatus) AllOK() bool { return js.Running == 0 && js.Failed == 0 }

// JobStatus inspects the processes on all domains. Destroyed domains
// count as failures.
func (vc *VirtualCluster) JobStatus() JobStatus {
	var js JobStatus
	for _, d := range vc.domains {
		if d.State() == vm.StateDestroyed || d.OS() == nil {
			js.Failed++
			continue
		}
		for _, p := range d.OS().Procs() {
			switch {
			case !p.Exited():
				js.Running++
			case p.ExitCode() == 0:
				js.Succeeded++
			default:
				js.Failed++
			}
		}
	}
	return js
}

// Manager is the DVC control plane for a site: it owns a hypervisor on
// every node and allocates virtual clusters on demand.
type Manager struct {
	kernel *sim.Kernel
	site   *phys.Site
	store  *storage.Store
	host   vm.Host // shared by pointer with every hypervisor

	hvs map[string]*vm.Hypervisor
	vcs map[string]*VirtualCluster
}

// NewManager installs DVC across the site.
func NewManager(k *sim.Kernel, site *phys.Site, store *storage.Store, xen vm.XenConfig) *Manager {
	m := &Manager{
		kernel: k,
		site:   site,
		store:  store,
		host:   vm.Host{Xen: xen, TCP: tcp.DefaultConfig()},
		hvs:    make(map[string]*vm.Hypervisor),
		vcs:    make(map[string]*VirtualCluster),
	}
	m.AdoptNodes()
	return m
}

// AdoptNodes installs hypervisors on any site nodes added after the
// manager was created.
func (m *Manager) AdoptNodes() {
	for _, n := range m.site.Nodes() {
		if _, ok := m.hvs[n.ID()]; !ok {
			m.hvs[n.ID()] = vm.NewHypervisor(m.kernel, m.site.Fabric, n, &m.host)
		}
	}
}

// SetTracer attaches an observability tracer (nil disables tracing) to
// the hypervisors' shared settings, the site fabric and the store.
func (m *Manager) SetTracer(t *obs.Tracer) {
	m.host.Tracer = t
	m.site.Fabric.SetTracer(t)
	m.store.SetTracer(t)
}

// SetTCPConfig overrides the transport configuration of guests booted
// from now on (experiments use this to shrink retry budgets).
func (m *Manager) SetTCPConfig(cfg tcp.Config) { m.host.TCP = cfg }

// Kernel returns the simulation kernel.
func (m *Manager) Kernel() *sim.Kernel { return m.kernel }

// Store returns the checkpoint store.
func (m *Manager) Store() *storage.Store { return m.store }

// Hypervisor returns the hypervisor on a node.
func (m *Manager) Hypervisor(nodeID string) (*vm.Hypervisor, bool) {
	h, ok := m.hvs[nodeID]
	return h, ok
}

// freeNodes returns up nodes in the given cluster (any if empty) that
// have room for a VM of ramBytes, excluding already-claimed node ids.
func (m *Manager) freeNodes(cluster string, ramBytes int64, claimed map[string]bool) []*phys.Node {
	var out []*phys.Node
	for _, n := range m.site.UpNodes(cluster) {
		if claimed[n.ID()] {
			continue
		}
		if h := m.hvs[n.ID()]; h != nil && h.FreeRAM() >= ramBytes {
			out = append(out, n)
		}
	}
	return out
}

// Place chooses physical nodes for a spec without allocating: one VM per
// node, preferring a single cluster, spanning clusters only when
// necessary. This is the fault-masking the paper notes: any healthy
// subset of nodes can host the VC.
func (m *Manager) Place(spec VCSpec) ([]*phys.Node, error) {
	clusters := spec.Clusters
	if len(clusters) == 0 {
		clusters = m.site.ClusterNames()
	}
	// Single-cluster fit first, in preference order.
	for _, cname := range clusters {
		nodes := m.freeNodes(cname, spec.VMRAM, nil)
		if len(nodes) >= spec.Nodes {
			return nodes[:spec.Nodes], nil
		}
	}
	// Span: take nodes cluster by cluster.
	claimed := make(map[string]bool)
	var placement []*phys.Node
	for _, cname := range clusters {
		for _, n := range m.freeNodes(cname, spec.VMRAM, claimed) {
			placement = append(placement, n)
			claimed[n.ID()] = true
			if len(placement) == spec.Nodes {
				return placement, nil
			}
		}
	}
	return nil, fmt.Errorf("dvc: %s: need %d nodes, only %d available", spec.Name, spec.Nodes, len(placement))
}

// Allocate places and boots a virtual cluster; onReady fires when every
// domain's guest OS is up.
func (m *Manager) Allocate(spec VCSpec, onReady func(*VirtualCluster)) (*VirtualCluster, error) {
	return m.AllocateOn(spec, nil, onReady)
}

// AllocateOn is Allocate with an explicit placement (nil = choose).
func (m *Manager) AllocateOn(spec VCSpec, placement []*phys.Node, onReady func(*VirtualCluster)) (*VirtualCluster, error) {
	if _, dup := m.vcs[spec.Name]; dup {
		return nil, fmt.Errorf("dvc: duplicate virtual cluster %q", spec.Name)
	}
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("dvc: %s: invalid node count %d", spec.Name, spec.Nodes)
	}
	if placement == nil {
		var err error
		placement, err = m.Place(spec)
		if err != nil {
			return nil, err
		}
	}
	if len(placement) != spec.Nodes {
		return nil, fmt.Errorf("dvc: %s: placement has %d nodes, want %d", spec.Name, len(placement), spec.Nodes)
	}
	vc := &VirtualCluster{mgr: m, spec: spec, state: VCAllocating, nodes: placement}
	m.vcs[spec.Name] = vc
	booting := spec.Nodes
	for i, node := range placement {
		h := m.hvs[node.ID()]
		name := fmt.Sprintf("%s-vm%02d", spec.Name, i)
		d, err := h.CreateDomain(name, vc.DomainAddr(i), spec.VMRAM, spec.Watchdog, func(*vm.Domain) {
			booting--
			if booting == 0 && vc.state == VCAllocating {
				vc.state = VCReady
				if onReady != nil {
					onReady(vc)
				}
			}
		})
		if err != nil {
			vc.Release()
			return nil, fmt.Errorf("dvc: %s: %w", spec.Name, err)
		}
		vc.domains = append(vc.domains, d)
	}
	return vc, nil
}

// LaunchMPI starts an MPI application across the VC, one rank per domain.
func (vc *VirtualCluster) LaunchMPI(basePort uint16, makeApp func(rank int) mpi.App) ([]guest.PID, error) {
	if vc.state != VCReady {
		return nil, fmt.Errorf("dvc: %s: launch on %v cluster", vc.spec.Name, vc.state)
	}
	return mpi.Launch(vc.OSes(), basePort, makeApp), nil
}

// RankApps returns each rank's application (for result inspection).
func (vc *VirtualCluster) RankApps() []mpi.App {
	var out []mpi.App
	for _, d := range vc.domains {
		if d.OS() == nil {
			out = append(out, nil)
			continue
		}
		found := false
		for _, p := range d.OS().Procs() {
			if drv, ok := p.Program().(*mpi.Driver); ok {
				out = append(out, drv.App)
				found = true
				break
			}
		}
		if !found {
			out = append(out, nil)
		}
	}
	return out
}
