package core

import (
	"strings"
	"testing"

	"dvc/internal/netsim"
	"dvc/internal/phys"
	"dvc/internal/sim"
)

// newTestEnv builds a one-cluster site with NTP running, installs DVC
// over it and boots a VC of vcNodes through Env.Allocate.
func newTestEnv(t *testing.T, nodes, vcNodes int) (*Env, *VirtualCluster) {
	t.Helper()
	site := phys.DefaultSite(sim.NewKernel(3))
	site.AddCluster("alpha", nodes, phys.DefaultSpec(), netsim.EthernetGigE())
	site.NTP.Start()
	e := NewEnv(site, DefaultNTPLSC())
	vc, err := e.Allocate(VCSpec{Name: "env", Nodes: vcNodes, VMRAM: testVMRAM}, 10*sim.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if vc.State() != VCReady {
		t.Fatalf("Allocate returned a VC in state %v", vc.State())
	}
	return e, vc
}

// TestAwaitSynchronousFailure: RestoreVC reports a wrong-size placement
// from inside the call. The await must return that result without
// running the kernel, and the halt the callback raised must not stick.
func TestAwaitSynchronousFailure(t *testing.T) {
	e, vc := newTestEnv(t, 4, 2)
	start := e.Kernel.Now()
	rr, err := e.Recover(vc, 0, e.Site.UpNodes("alpha")[:1], sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rr.OK || !strings.Contains(rr.Reason, "placement has") {
		t.Fatalf("Recover onto 1 node = %+v, want a placement failure", rr)
	}
	if now := e.Kernel.Now(); now != start {
		t.Fatalf("Now moved %v -> %v on a synchronous failure", start, now)
	}
	e.Kernel.RunFor(sim.Second)
	if now := e.Kernel.Now(); now != start+sim.Second {
		t.Fatalf("RunFor after the await reached %v, want %v", now, start+sim.Second)
	}
}

// TestAwaitOpError: a checkpoint the coordinator refuses returns its
// error and fires no event.
func TestAwaitOpError(t *testing.T) {
	e, vc := newTestEnv(t, 2, 2)
	vc.Teardown()
	start, fired := e.Kernel.Now(), e.Kernel.Fired()
	res, err := e.Checkpoint(vc, sim.Hour)
	if err == nil || !strings.Contains(err.Error(), "cluster is") {
		t.Fatalf("Checkpoint of a torn-down VC = %+v, %v; want the coordinator's state error", res, err)
	}
	if e.Kernel.Fired() != fired || e.Kernel.Now() != start {
		t.Fatalf("refused checkpoint ran the kernel: fired %d -> %d, now %v -> %v",
			fired, e.Kernel.Fired(), start, e.Kernel.Now())
	}
}

// TestAwaitLimit: a limit shorter than the save stops the wait exactly
// at the limit and reports that the operation never completed.
func TestAwaitLimit(t *testing.T) {
	e, vc := newTestEnv(t, 2, 2)
	const limit = 100 * sim.Millisecond
	start := e.Kernel.Now()
	res, err := e.Checkpoint(vc, limit)
	if err == nil || !strings.Contains(err.Error(), "never completed") {
		t.Fatalf("Checkpoint within %v = %+v, %v; want a never-completed error", limit, res, err)
	}
	if now := e.Kernel.Now(); now != start+limit {
		t.Fatalf("Now = %v after the limit, want %v", now, start+limit)
	}
}
