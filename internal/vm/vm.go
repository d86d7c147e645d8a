// Package vm models the Xen-style para-virtualising hypervisor DVC is
// built on: domains (VMs) hosted on physical nodes, with pause / unpause /
// save / restore of the complete guest, and para-virtualisation overheads
// on CPU and network I/O.
//
// The capability the paper builds on (§1): "The Xen virtual machine
// provides the ability to pause, save, and restart the virtual OS,
// including the state of all processes running within that OS."
// Domain.Capture produces exactly that — a byte image of the entire guest
// (processes mid-operation, sockets with retransmission state, kernel
// log) that can be restored on any node of any cluster.
package vm

import (
	"fmt"
	"hash/crc32"
	"sort"

	"dvc/internal/guest"
	"dvc/internal/netsim"
	"dvc/internal/obs"
	"dvc/internal/payload"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

// XenConfig models the hypervisor's overheads.
type XenConfig struct {
	// CPUOverhead scales guest compute time (1.0 = native). 2007-era
	// para-virtualised CPU-bound code ran within a few percent of
	// native.
	CPUOverhead float64
	// NetExtraLatency is added per packet by the split-driver network
	// path through dom0.
	NetExtraLatency sim.Time
	// NetBandwidthFactor scales guest network bandwidth (<1).
	NetBandwidthFactor float64
	// BootTime is how long a domain takes to boot.
	BootTime sim.Time
	// Dom0Reserve is RAM kept by the control domain.
	Dom0Reserve int64
	// TemplateBytes is the leading span of guest RAM populated from the
	// golden boot image and therefore byte-identical across every domain
	// until first write. The delta-checkpoint page table names those
	// chunks by (offset, size) alone, so they dedup across VMs. Zero
	// disables template sharing.
	TemplateBytes int64
}

// DefaultXenConfig matches published 2007 Xen measurements: ~3% CPU
// overhead, tens of microseconds of added network latency, modest
// bandwidth loss.
func DefaultXenConfig() XenConfig {
	return XenConfig{
		CPUOverhead:        1.03,
		NetExtraLatency:    28 * sim.Microsecond,
		NetBandwidthFactor: 0.85,
		BootTime:           25 * sim.Second,
		Dom0Reserve:        256 << 20,
		TemplateBytes:      64 << 20,
	}
}

// DomainState tracks a domain's lifecycle.
type DomainState int

// Domain lifecycle states.
const (
	StateBooting DomainState = iota
	StateRunning
	StatePaused
	StateDestroyed
)

func (s DomainState) String() string {
	switch s {
	case StateBooting:
		return "Booting"
	case StateRunning:
		return "Running"
	case StatePaused:
		return "Paused"
	case StateDestroyed:
		return "Destroyed"
	default:
		return fmt.Sprintf("DomainState(%d)", int(s))
	}
}

// Image is a saved domain: the whole-VM checkpoint artifact. Data is
// the one-chunk payload rope guest.EncodeImagePayload builds — the image
// is immutable from the moment it is captured (the checksum enforces as
// much at restore time), so its bytes are shared, never copied, as the
// image moves through the store and restore paths. It is a root of
// STATE_MANIFEST.txt, whose test holds it to the image codec's rules.
type Image struct {
	DomainName string
	Addr       netsim.Addr
	RAMBytes   int64 // guest memory size
	Data       payload.Bytes
	CapturedAt sim.Time
	// Checksum guards the functional payload: a restore of a corrupted
	// image must fail loudly, not resurrect a damaged guest.
	Checksum uint32

	// Pages is the modelled chunk-identity table at capture time; every
	// captured image carries one, so a restored domain keeps its chunk
	// lineage. The table is immutable once captured: the store pins
	// chunks by it at write and releases them by it at delete.
	// PayloadBytes is the modelled size of the pages dirtied since the
	// last capture plus page-table metadata.
	Pages        *PageTable
	PayloadBytes int64
	// Delta marks a delta epoch: SizeBytes is PayloadBytes instead of
	// all of RAM, and storage.Write pins the table's chunks in the
	// shared pool. Like DirtyRate it is host metadata outside Data.
	Delta bool

	// DirtyRate is the domain's dirty-page rate override (SetDirtyRate)
	// at capture. Like Pages it is host metadata outside Data: the rate
	// models the workload the guest runs, so it travels with the image
	// and a restored domain keeps it, but it is not guest state and adds
	// nothing to the image bytes.
	DirtyRate float64
}

// imageChecksum computes the IEEE CRC-32 of a rope without flattening
// it (CRC-32 streams: updating chunk by chunk equals checksumming the
// concatenation).
func imageChecksum(data payload.Bytes) uint32 {
	var crc uint32
	for k, n := 0, data.NumChunks(); k < n; k++ {
		crc = crc32.Update(crc, crc32.IEEETable, data.Chunk(k))
	}
	return crc
}

// Verify recomputes the payload checksum.
func (img *Image) Verify() error {
	if img.Checksum != imageChecksum(img.Data) {
		return fmt.Errorf("vm: image %s is corrupted (checksum mismatch)", img.DomainName)
	}
	return nil
}

// SizeBytes returns the modelled on-disk image size. A full whole-VM
// checkpoint writes every page of guest RAM — this is the overhead the
// paper concedes to VM-level checkpointing (§2); delta images write
// only dirty pages.
func (img *Image) SizeBytes() int64 {
	if img.Delta {
		return img.PayloadBytes
	}
	return img.RAMBytes
}

// Domain is one virtual machine.
type Domain struct {
	name string
	addr netsim.Addr
	ram  int64
	hv   *Hypervisor
	os   *guest.OS
	port *netsim.Port

	state    DomainState
	pausedAt sim.Time

	// Dirty-page model (see dirty.go) and the chunk-identity table the
	// delta-checkpoint path dedups on (see pages.go).
	dirtyRate float64
	cleanMark sim.Time
	pages     *PageTable
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.name }

// RAMBytes returns the domain's memory size.
func (d *Domain) RAMBytes() int64 { return d.ram }

// State returns the domain's lifecycle state.
func (d *Domain) State() DomainState { return d.state }

// OS returns the guest operating system (nil while booting).
func (d *Domain) OS() *guest.OS { return d.os }

// Node returns the hosting physical node.
func (d *Domain) Node() *phys.Node { return d.hv.node }

// Pause suspends the domain: the guest freezes and its NIC drops traffic.
// This is the instant that matters for LSC skew.
func (d *Domain) Pause() error {
	if d.state != StateRunning {
		return fmt.Errorf("vm: pause %s: domain is %v", d.name, d.state)
	}
	d.state = StatePaused
	d.pausedAt = d.hv.kernel.Now()
	d.os.Freeze()
	d.port.SetUp(false)
	d.hv.trace(obs.EvVMPause, d.name, "pause")
	d.hv.host.Tracer.Inc("vm.pauses", 1)
	return nil
}

// Unpause resumes a paused domain.
func (d *Domain) Unpause() error {
	if d.state != StatePaused {
		return fmt.Errorf("vm: unpause %s: domain is %v", d.name, d.state)
	}
	d.state = StateRunning
	d.port.SetUp(true)
	d.os.Thaw()
	d.hv.trace(obs.EvVMUnpause, d.name, "unpause",
		obs.Dur("paused_ns", d.hv.kernel.Now()-d.pausedAt))
	d.hv.host.Tracer.Inc("vm.unpauses", 1)
	return nil
}

// Capture snapshots a paused domain into an image. Capture itself is
// state copying; the store charges the time to dump the image
// (storage.Write's bandwidth model).
//
// The image is one exactly sized buffer (guest.EncodeImagePayload),
// checksummed in one pass once it is complete.
//
// Every capture is also a clean mark: the interval's dirt is folded
// into the page table, and the image carries a copy of the table, so a
// restored domain keeps its chunk lineage whichever way it was saved.
// The functional payload is always the complete guest; delta only
// decides how the image is sized and stored (Image.Delta).
func (d *Domain) Capture(delta bool) (*Image, error) {
	if d.state != StatePaused {
		return nil, fmt.Errorf("vm: capture %s: domain is %v, must be paused", d.name, d.state)
	}
	data, err := guest.EncodeImagePayload(d.os.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("vm: capture %s: %w", d.name, err)
	}
	dirty := d.fold()
	d.hv.trace(obs.EvVMSave, d.name, "save", obs.Int("ram", d.ram))
	d.hv.host.Tracer.Inc("vm.saves", 1)
	return &Image{
		DomainName:   d.name,
		Addr:         d.addr,
		RAMBytes:     d.ram,
		Data:         data,
		CapturedAt:   d.hv.kernel.Now(),
		Checksum:     imageChecksum(data),
		Pages:        d.pages.Clone(),
		PayloadBytes: dirty + d.ram/512,
		Delta:        delta,
		DirtyRate:    d.dirtyRate,
	}, nil
}

// Destroy tears the domain down, releasing its RAM and address. The
// guest is released (guest.OS.Release), so the kernel keeps no timer of
// a destroyed domain and the retired OS can be collected.
func (d *Domain) Destroy() {
	if d.state == StateDestroyed {
		return
	}
	if d.os != nil {
		d.os.Release()
	}
	if d.port != nil {
		d.port.Detach()
	}
	d.state = StateDestroyed
	delete(d.hv.domains, d.name)
	d.hv.trace(obs.EvVMDestroy, d.name, "destroy")
}

// Host is the settings every hypervisor of a site shares. One record
// serves all of them by pointer, so a change reaches every node at once
// and no copy can fall behind.
type Host struct {
	// Xen holds the hypervisor overheads.
	Xen XenConfig
	// TCP is the transport configuration given to new guests.
	TCP tcp.Config
	// Tracer (nil when tracing is off) receives domain lifecycle
	// transitions as vm.* events on the (node, domain) timeline; new and
	// restored guest stacks inherit it.
	Tracer *obs.Tracer
}

// Hypervisor is the per-node VMM.
type Hypervisor struct {
	kernel  *sim.Kernel
	fabric  *netsim.Fabric
	node    *phys.Node
	host    *Host
	domains map[string]*Domain
}

// NewHypervisor installs a hypervisor on a node, reading its settings
// from host. If the node crashes, all hosted domains are destroyed.
func NewHypervisor(k *sim.Kernel, fabric *netsim.Fabric, node *phys.Node, host *Host) *Hypervisor {
	h := &Hypervisor{
		kernel:  k,
		fabric:  fabric,
		node:    node,
		host:    host,
		domains: make(map[string]*Domain),
	}
	node.OnCrash(h.killAll)
	return h
}

// trace emits one domain-lifecycle instant event.
func (h *Hypervisor) trace(typ obs.EventType, dom, name string, kv ...obs.KV) {
	h.host.Tracer.Emit(h.kernel.Now(), typ, h.node.ID(), dom, name, kv...)
}

func (h *Hypervisor) killAll() {
	for _, d := range h.Domains() {
		d.Destroy()
	}
}

// Domains lists hosted domains sorted by name.
func (h *Hypervisor) Domains() []*Domain {
	names := make([]string, 0, len(h.domains))
	for n := range h.domains {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Domain, len(names))
	for i, n := range names {
		out[i] = h.domains[n]
	}
	return out
}

// FreeRAM reports RAM available for new domains.
func (h *Hypervisor) FreeRAM() int64 {
	free := h.node.Spec().RAMBytes - h.host.Xen.Dom0Reserve
	for _, d := range h.domains {
		free -= d.ram
	}
	return free
}

// Admit reports why this node would refuse a domain named name with ram
// bytes of RAM, or nil if it would take one: the node must be up, the
// name free and the RAM available. CreateDomain and RestoreDomain apply
// this rule; Admit only checks it.
func (h *Hypervisor) Admit(name string, ram int64) error {
	if ram < 0 {
		return fmt.Errorf("vm: %s: negative RAM %d", name, ram)
	}
	if !h.node.Up() {
		return fmt.Errorf("vm: node %s is down", h.node.ID())
	}
	if _, dup := h.domains[name]; dup {
		return fmt.Errorf("vm: duplicate domain %q on %s", name, h.node.ID())
	}
	if ram > h.FreeRAM() {
		return fmt.Errorf("vm: %s: need %d bytes, %d free on %s", name, ram, h.FreeRAM(), h.node.ID())
	}
	return nil
}

// CreateDomain boots a fresh domain. onReady fires when the guest OS is
// up (after BootTime); the returned domain is in Booting until then.
func (h *Hypervisor) CreateDomain(name string, addr netsim.Addr, ram int64, wd guest.WatchdogConfig, onReady func(*Domain)) (*Domain, error) {
	if err := h.Admit(name, ram); err != nil {
		return nil, err
	}
	d := &Domain{name: name, addr: addr, ram: ram, hv: h, state: StateBooting}
	h.domains[name] = d
	// Lifecycle timeouts ride on sim.Timer: the boot deadline is a
	// rearmable slot that frees itself after firing, so domain churn
	// (boot/destroy cycles in the allocation experiments) does not grow
	// the kernel's event slab.
	var boot *sim.Timer
	boot = sim.NewTimer(h.kernel, func() {
		boot.Free()
		if d.state != StateBooting || !h.node.Up() {
			return
		}
		stack := tcp.NewStack(h.kernel, h.fabric, addr, h.host.TCP)
		stack.SetTracer(h.host.Tracer, h.node.ID(), name)
		d.port = h.fabric.Attach(addr, h.node.Cluster(), stack.Deliver)
		d.port.ExtraLatency = h.host.Xen.NetExtraLatency
		d.port.BandwidthFactor = h.host.Xen.NetBandwidthFactor
		d.os = guest.New(h.kernel, stack, h.node.Clock().Read, h.host.Xen.CPUOverhead, wd)
		d.state = StateRunning
		h.trace(obs.EvVMBoot, name, "boot", obs.Int("ram", ram))
		if onReady != nil {
			onReady(d)
		}
	})
	boot.Reset(h.host.Xen.BootTime)
	return d, nil
}

// RestoreDomain materialises a saved image as a paused domain on this
// node. The store charges the time to load the image (storage.Read's
// bandwidth model); the caller then calls Unpause. The image's address
// must not be attached anywhere — destroy the original domain before
// restoring. Stored images are untrusted input: an image with negative
// RAM, or one that fails its checksum, its page-table check or the guest
// image decoder, is refused with an error.
func (h *Hypervisor) RestoreDomain(img *Image) (*Domain, error) {
	if err := h.Admit(img.DomainName, img.RAMBytes); err != nil {
		return nil, err
	}
	if _, attached := h.fabric.Lookup(img.Addr); attached {
		return nil, fmt.Errorf("vm: restore %s: address %s still attached", img.DomainName, img.Addr)
	}
	if err := img.Verify(); err != nil {
		return nil, err
	}
	if img.Pages != nil {
		if err := img.Pages.Validate(img.RAMBytes); err != nil {
			return nil, fmt.Errorf("vm: restore %s: %w", img.DomainName, err)
		}
	}
	snap, err := guest.DecodeImagePayload(img.Data)
	if err != nil {
		return nil, fmt.Errorf("vm: restore %s: %w", img.DomainName, err)
	}
	os := guest.Restore(h.kernel, h.fabric, snap, h.node.Clock().Read, h.host.Xen.CPUOverhead)
	os.Stack().SetTracer(h.host.Tracer, h.node.ID(), img.DomainName)
	d := &Domain{name: img.DomainName, addr: img.Addr, ram: img.RAMBytes, hv: h, os: os, state: StatePaused, dirtyRate: img.DirtyRate}
	// The restored guest's active time continues from the snapshot's
	// jiffies, and the image already holds everything written up to the
	// capture: the clean mark survives the OS swap instead of resetting
	// to boot, so post-restore dirty accounting does not re-count the
	// whole pre-capture history. The image also hands its chunk lineage
	// across, cloned so later sweeps never mutate the stored image's
	// table.
	d.cleanMark = os.Jiffies()
	d.pages = img.Pages.Clone()
	d.port = h.fabric.Attach(img.Addr, h.node.Cluster(), os.Stack().Deliver)
	d.port.ExtraLatency = h.host.Xen.NetExtraLatency
	d.port.BandwidthFactor = h.host.Xen.NetBandwidthFactor
	d.port.SetUp(false)
	h.domains[img.DomainName] = d
	h.trace(obs.EvVMRestore, img.DomainName, "restore", obs.Int("ram", img.RAMBytes))
	h.host.Tracer.Inc("vm.restores", 1)
	return d, nil
}

// NativeOS boots a bare-metal OS directly on a node (no virtualisation):
// the baseline for experiment E7. The OS freezes when the node crashes.
// The returned teardown retires it when its job ends: it drops the crash
// hook, releases the OS (guest.OS.Release) and detaches the address, so
// neither the node nor the kernel keeps a torn-down OS reachable.
// Teardown is idempotent.
func NativeOS(k *sim.Kernel, fabric *netsim.Fabric, node *phys.Node, addr netsim.Addr, tcpCfg tcp.Config, wd guest.WatchdogConfig) (os *guest.OS, teardown func()) {
	stack := tcp.NewStack(k, fabric, addr, tcpCfg)
	port := fabric.Attach(addr, node.Cluster(), stack.Deliver)
	os = guest.New(k, stack, node.Clock().Read, 1.0, wd)
	unhook := node.OnCrash(func() {
		os.Freeze()
		port.SetUp(false)
	})
	return os, func() {
		unhook()
		os.Release()
		port.Detach()
	}
}
