package vm

import (
	"fmt"
	"strings"
	"testing"

	"dvc/internal/guest"
	"dvc/internal/imgcodec"
	"dvc/internal/netsim"
	"dvc/internal/payload"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

func init() {
	imgcodec.Register(&workerProg{})
}

// workerProg computes in rounds and records progress; used to watch
// domains across save/restore.
type workerProg struct {
	Rounds int
	Dur    sim.Time
	I      int
}

func (p *workerProg) Next(api *guest.API, res guest.Result) guest.Op {
	if p.I < p.Rounds {
		p.I++
		return api.Compute(p.Dur)
	}
	api.Exit(0)
	return nil
}

type env struct {
	k    *sim.Kernel
	site *phys.Site
	hvs  map[string]*Hypervisor
}

func newEnv(t *testing.T, nodes int) *env {
	t.Helper()
	k := sim.NewKernel(11)
	site := phys.DefaultSite(k)
	ns := site.AddCluster("c", nodes, phys.DefaultSpec(), netsim.EthernetGigE())
	e := &env{k: k, site: site, hvs: make(map[string]*Hypervisor)}
	host := defaultHost()
	for _, n := range ns {
		e.hvs[n.ID()] = NewHypervisor(k, site.Fabric, n, host)
	}
	return e
}

// defaultHost returns the settings a Manager starts its hypervisors with.
func defaultHost() *Host { return &Host{Xen: DefaultXenConfig(), TCP: tcp.DefaultConfig()} }

func (e *env) hv(i int) *Hypervisor { return e.hvs[e.site.Nodes()[i].ID()] }

func TestCreateDomainBoots(t *testing.T) {
	e := newEnv(t, 1)
	var ready *Domain
	d, err := e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(d *Domain) { ready = d })
	if err != nil {
		t.Fatal(err)
	}
	if d.State() != StateBooting {
		t.Fatalf("state = %v before boot", d.State())
	}
	e.k.RunFor(DefaultXenConfig().BootTime + sim.Second)
	if ready != d || d.State() != StateRunning {
		t.Fatalf("domain not ready: state=%v", d.State())
	}
	if d.OS() == nil {
		t.Fatal("no guest OS after boot")
	}
	if d.addr != "vm0" || d.Name() != "vm0" || d.RAMBytes() != 1<<30 {
		t.Fatal("domain metadata wrong")
	}
}

func TestRAMAdmissionControl(t *testing.T) {
	e := newEnv(t, 1)
	h := e.hv(0)
	spec := phys.DefaultSpec()
	free := spec.RAMBytes - DefaultXenConfig().Dom0Reserve
	if _, err := h.CreateDomain("big", "big", free+1, guest.WatchdogConfig{}, nil); err == nil {
		t.Fatal("overcommit accepted")
	}
	if _, err := h.CreateDomain("ok", "ok", free, guest.WatchdogConfig{}, nil); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
	if h.FreeRAM() != 0 {
		t.Fatalf("FreeRAM = %d after exact fit", h.FreeRAM())
	}
	if _, err := h.CreateDomain("more", "more", 1, guest.WatchdogConfig{}, nil); err == nil {
		t.Fatal("second domain accepted with no free RAM")
	}
}

func TestDuplicateDomainNameRejected(t *testing.T) {
	e := newEnv(t, 1)
	if _, err := e.hv(0).CreateDomain("d", "a1", 1<<30, guest.WatchdogConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.hv(0).CreateDomain("d", "a2", 1<<30, guest.WatchdogConfig{}, nil); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestGuestComputeRunsSlowerThanNative(t *testing.T) {
	e := newEnv(t, 2)
	cfg := DefaultXenConfig()

	// Native baseline on node 1.
	nos, _ := NativeOS(e.k, e.site.Fabric, e.site.Nodes()[1], "native", tcp.DefaultConfig(), guest.WatchdogConfig{})
	nativeProg := &workerProg{Rounds: 1, Dur: 100 * sim.Second}
	nos.Spawn(nativeProg)

	guestProg := &workerProg{Rounds: 1, Dur: 100 * sim.Second}
	_, err := e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) {
		dom.OS().Spawn(guestProg)
	})
	if err != nil {
		t.Fatal(err)
	}
	e.k.Run()
	// Native: 100s. Guest: boot 25s + 103s.
	if nativeProg.I != 1 || guestProg.I != 1 {
		t.Fatal("programs did not run")
	}
	wantEnd := cfg.BootTime + sim.Time(float64(100*sim.Second)*cfg.CPUOverhead)
	if e.k.Now() != wantEnd {
		t.Fatalf("sim ended at %v, want %v (guest 3%% slower after 25s boot)", e.k.Now(), wantEnd)
	}
}

func TestPauseUnpause(t *testing.T) {
	e := newEnv(t, 1)
	prog := &workerProg{Rounds: 1000, Dur: 10 * sim.Millisecond}
	var d *Domain
	e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) {
		d = dom
		dom.OS().Spawn(prog)
	})
	e.k.RunFor(30 * sim.Second)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	before := prog.I
	e.k.RunFor(60 * sim.Second)
	if prog.I != before {
		t.Fatal("guest advanced while paused")
	}
	if err := d.Pause(); err == nil {
		t.Fatal("double pause accepted")
	}
	if err := d.Unpause(); err != nil {
		t.Fatal(err)
	}
	e.k.RunFor(5 * sim.Second)
	if prog.I == before {
		t.Fatal("guest did not resume")
	}
}

func TestCaptureRequiresPause(t *testing.T) {
	e := newEnv(t, 1)
	var d *Domain
	e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) { d = dom })
	e.k.RunFor(30 * sim.Second)
	if _, err := d.Capture(false); err == nil {
		t.Fatal("capture of running domain accepted")
	}
}

func TestSaveRestoreOnDifferentNode(t *testing.T) {
	e := newEnv(t, 2)
	prog := &workerProg{Rounds: 100, Dur: sim.Second}
	var d *Domain
	e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) {
		d = dom
		dom.OS().Spawn(prog)
	})
	e.k.RunFor(40 * sim.Second) // ~15s of work done
	progressAtSave := prog.I
	if progressAtSave == 0 {
		t.Fatal("no progress before save")
	}
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	img, err := d.Capture(false)
	if err != nil {
		t.Fatal(err)
	}
	if img.SizeBytes() != 1<<30 {
		t.Fatalf("image models %d bytes, want full 1GiB RAM", img.SizeBytes())
	}
	d.Destroy()
	// The original node dies; restore on node 1.
	e.site.Nodes()[0].Fail()
	e.k.RunFor(10 * sim.Second)

	d2, err := e.hv(1).RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	if d2.State() != StatePaused {
		t.Fatalf("restored domain state %v, want Paused", d2.State())
	}
	if err := d2.Unpause(); err != nil {
		t.Fatal(err)
	}
	e.k.Run()
	restored := d2.OS().Procs()[0].Program().(*workerProg)
	if restored.I != 100 {
		t.Fatalf("restored program finished %d rounds, want 100", restored.I)
	}
	if restored.I < progressAtSave {
		t.Fatal("restore lost progress")
	}
}

func TestRestoreRejectsAttachedAddress(t *testing.T) {
	e := newEnv(t, 2)
	var d *Domain
	e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) { d = dom })
	e.k.RunFor(30 * sim.Second)
	d.Pause()
	img, _ := d.Capture(false)
	// Original still attached: restore elsewhere must fail.
	if _, err := e.hv(1).RestoreDomain(img); err == nil {
		t.Fatal("restore with address still attached accepted")
	}
	d.Destroy()
	if _, err := e.hv(1).RestoreDomain(img); err != nil {
		t.Fatalf("restore after destroy failed: %v", err)
	}
}

func TestNodeCrashDestroysDomains(t *testing.T) {
	e := newEnv(t, 1)
	var d *Domain
	e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) { d = dom })
	e.k.RunFor(30 * sim.Second)
	e.site.Nodes()[0].Fail()
	if d.State() != StateDestroyed {
		t.Fatalf("domain state %v after node crash", d.State())
	}
	if len(e.hv(0).Domains()) != 0 {
		t.Fatal("crashed node still lists domains")
	}
}

func TestCreateOnDownNodeFails(t *testing.T) {
	e := newEnv(t, 1)
	e.site.Nodes()[0].Fail()
	if _, err := e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, nil); err == nil {
		t.Fatal("create on down node accepted")
	}
}

func TestDomainStateString(t *testing.T) {
	if StateBooting.String() != "Booting" || StateDestroyed.String() != "Destroyed" {
		t.Fatal("state strings wrong")
	}
}

func TestMultipleDomainsPerNode(t *testing.T) {
	// DVC allows a virtual cluster smaller (or denser) than the physical
	// one: several domains can share a node as long as RAM allows.
	e := newEnv(t, 1)
	h := e.hv(0)
	progs := make([]*workerProg, 3)
	for i := range progs {
		progs[i] = &workerProg{Rounds: 5, Dur: sim.Second}
		i := i
		name := fmt.Sprintf("vm%d", i)
		if _, err := h.CreateDomain(name, netsim.Addr(name), 512<<20, guest.WatchdogConfig{}, func(d *Domain) {
			d.OS().Spawn(progs[i])
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.Domains()) != 3 {
		t.Fatalf("%d domains", len(h.Domains()))
	}
	e.k.Run()
	for i, p := range progs {
		if p.I != 5 {
			t.Fatalf("domain %d program did %d rounds", i, p.I)
		}
	}
}

func TestPauseOneDomainLeavesSiblingsRunning(t *testing.T) {
	e := newEnv(t, 1)
	h := e.hv(0)
	a := &workerProg{Rounds: 1000, Dur: 100 * sim.Millisecond}
	bp := &workerProg{Rounds: 1000, Dur: 100 * sim.Millisecond}
	var da *Domain
	h.CreateDomain("a", "a", 512<<20, guest.WatchdogConfig{}, func(d *Domain) {
		da = d
		d.OS().Spawn(a)
	})
	h.CreateDomain("b", "b", 512<<20, guest.WatchdogConfig{}, func(d *Domain) { d.OS().Spawn(bp) })
	e.k.RunFor(30 * sim.Second)
	da.Pause()
	frozenAt := a.I
	e.k.RunFor(10 * sim.Second)
	if a.I != frozenAt {
		t.Fatal("paused domain advanced")
	}
	if bp.I <= frozenAt {
		t.Fatal("sibling domain did not keep running")
	}
}

func TestRestoreAcrossClusters(t *testing.T) {
	k := sim.NewKernel(12)
	site := phys.DefaultSite(k)
	a := site.AddCluster("a", 1, phys.DefaultSpec(), netsim.EthernetGigE())[0]
	b := site.AddCluster("b", 1, phys.DefaultSpec(), netsim.EthernetGigE())[0]
	host := defaultHost()
	ha := NewHypervisor(k, site.Fabric, a, host)
	hb := NewHypervisor(k, site.Fabric, b, host)
	prog := &workerProg{Rounds: 60, Dur: sim.Second}
	var d *Domain
	ha.CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) {
		d = dom
		dom.OS().Spawn(prog)
	})
	k.RunFor(40 * sim.Second)
	d.Pause()
	img, err := d.Capture(false)
	if err != nil {
		t.Fatal(err)
	}
	d.Destroy()
	d2, err := hb.RestoreDomain(img)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Node().Cluster() != "b" {
		t.Fatal("restored domain not on cluster b")
	}
	d2.Unpause()
	k.Run()
	if got := d2.OS().Procs()[0].Program().(*workerProg); got.I != 60 {
		t.Fatalf("cross-cluster restore finished %d rounds", got.I)
	}
}

func TestImagePayloadIsSelfContained(t *testing.T) {
	// The image's Data must fully describe the guest: decode it
	// independently and inspect the program state inside.
	e := newEnv(t, 1)
	prog := &workerProg{Rounds: 10, Dur: sim.Second}
	var d *Domain
	e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) {
		d = dom
		dom.OS().Spawn(prog)
	})
	e.k.RunFor(30 * sim.Second)
	d.Pause()
	img, err := d.Capture(false)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := guest.DecodeImagePayload(img.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Procs) != 1 {
		t.Fatalf("image holds %d procs", len(snap.Procs))
	}
	inner, ok := snap.Procs[0].Prog.(*workerProg)
	if !ok {
		t.Fatalf("image program type %T", snap.Procs[0].Prog)
	}
	if inner.I != prog.I {
		t.Fatalf("image program at round %d, live at %d", inner.I, prog.I)
	}
	// And the decoded copy is independent of the live guest.
	inner.I = 999
	if prog.I == 999 {
		t.Fatal("image aliases live program state")
	}
}

func TestCorruptedImageRefusedAtRestore(t *testing.T) {
	e := newEnv(t, 2)
	var d *Domain
	e.hv(0).CreateDomain("vm0", "vm0", 1<<30, guest.WatchdogConfig{}, func(dom *Domain) {
		d = dom
		dom.OS().Spawn(&workerProg{Rounds: 10, Dur: sim.Second})
	})
	e.k.RunFor(30 * sim.Second)
	d.Pause()
	img, err := d.Capture(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Verify(); err != nil {
		t.Fatalf("fresh image fails verification: %v", err)
	}
	d.Destroy()
	// Bit-rot in the stored image. The rope's chunks are immutable, so
	// corruption is modelled by rebuilding the payload around a flipped
	// bit rather than mutating shared chunks in place.
	flat := append([]byte(nil), img.Data.Flatten()...)
	flat[len(flat)/2] ^= 0x40
	img.Data = payload.Wrap(flat)
	if _, err := e.hv(1).RestoreDomain(img); err == nil {
		t.Fatal("corrupted image restored without error")
	}
}

// TestRestoreRejectsStacklessImage: an image whose checksum matches but
// whose guest has no TCP stack is refused with an error, not restored
// into a nil dereference.
func TestRestoreRejectsStacklessImage(t *testing.T) {
	e := newEnv(t, 1)
	data, err := guest.EncodeImagePayload(&guest.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	img := &Image{DomainName: "vm0", Addr: "vm0", RAMBytes: 1 << 30, Data: data, Checksum: imageChecksum(data)}
	if _, err := e.hv(0).RestoreDomain(img); err == nil || !strings.Contains(err.Error(), "stack") {
		t.Fatalf("stackless image: %v", err)
	}
}
