package guest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dvc/internal/imgcodec"
	"dvc/internal/netsim"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

func init() {
	imgcodec.Register(&computeProg{})
	imgcodec.Register(&pingProg{})
	imgcodec.Register(&echoProg{})
	imgcodec.Register(&clockProg{})
	imgcodec.Register(&listenTwiceProg{})
	imgcodec.Register(&apiProbeProg{})
}

// computeProg computes for a fixed duration N times, then exits 0.
type computeProg struct {
	Dur    sim.Time
	Rounds int
	I      int
	Done   bool
}

func (p *computeProg) Next(api *API, res Result) Op {
	if p.I < p.Rounds {
		p.I++
		return api.Compute(p.Dur)
	}
	p.Done = true
	api.Exit(0)
	return nil
}

// echoProg accepts one connection and echoes fixed-size messages until
// the connection fails.
type echoProg struct {
	Port uint16
	Size int
	PC   int
	FD   int
	Seen int
	Buf  []byte
}

func (p *echoProg) Next(api *API, res Result) Op {
	for {
		switch p.PC {
		case 0:
			p.PC = 1
			return Accept(p.Port)
		case 1:
			p.FD = res.FD
			p.PC = 2
			return api.Recv(p.FD, p.Size)
		case 2:
			if res.Err != nil {
				api.Exit(1)
				return nil
			}
			p.Seen++
			p.Buf = res.Data
			p.PC = 3
			return Send(p.FD, p.Buf)
		case 3:
			if res.Err != nil {
				api.Exit(1)
				return nil
			}
			p.PC = 2
			return api.Recv(p.FD, p.Size)
		default:
			api.Exit(2)
			return nil
		}
	}
}

// pingProg connects and does Rounds round trips of Size-byte messages.
type pingProg struct {
	Server netsim.Addr
	Port   uint16
	Size   int
	Rounds int
	PC     int
	FD     int
	Done   int
	Fail   string
}

func (p *pingProg) Next(api *API, res Result) Op {
	for {
		switch p.PC {
		case 0:
			p.PC = 1
			return Connect(p.Server, p.Port)
		case 1:
			if res.Err != nil {
				p.Fail = res.Err.Error()
				api.Exit(1)
				return nil
			}
			p.FD = res.FD
			p.PC = 2
		case 2:
			if p.Done >= p.Rounds {
				api.Exit(0)
				return nil
			}
			p.PC = 3
			msg := make([]byte, p.Size)
			for i := range msg {
				msg[i] = byte(p.Done)
			}
			return Send(p.FD, msg)
		case 3:
			if res.Err != nil {
				p.Fail = res.Err.Error()
				api.Exit(1)
				return nil
			}
			p.PC = 4
			return api.Recv(p.FD, p.Size)
		case 4:
			if res.Err != nil {
				p.Fail = fmt.Sprintf("recv: %v", res.Err)
				api.Exit(1)
				return nil
			}
			if len(res.Data) != p.Size || res.Data[0] != byte(p.Done) {
				p.Fail = "corrupt echo"
				api.Exit(1)
				return nil
			}
			p.Done++
			p.PC = 2
		}
	}
}

// clockProg samples wall clock and jiffies around a compute op (the rig's
// cpuFactor is 1.0, so it runs for exactly SleepFor of guest time).
type clockProg struct {
	SleepFor                   sim.Time
	PC                         int
	Wall0, Wall1, Jiff0, Jiff1 sim.Time
}

func (p *clockProg) Next(api *API, res Result) Op {
	switch p.PC {
	case 0:
		p.Wall0, p.Jiff0 = api.WallClock(), api.Jiffies()
		p.PC = 1
		return &ComputeOp{Duration: p.SleepFor}
	default:
		p.Wall1, p.Jiff1 = api.WallClock(), api.Jiffies()
		api.Exit(0)
		return nil
	}
}

// rig is a two-guest test environment.
type rig struct {
	k      *sim.Kernel
	fabric *netsim.Fabric
	osA    *OS
	osB    *OS
	pA, pB *netsim.Port
}

func newRig(t testing.TB) *rig {
	t.Helper()
	k := sim.NewKernel(7)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	r := &rig{k: k, fabric: f}
	sa := tcp.NewStack(k, f, "ga", tcp.DefaultConfig())
	sb := tcp.NewStack(k, f, "gb", tcp.DefaultConfig())
	r.pA = f.Attach("ga", "c", sa.Deliver)
	r.pB = f.Attach("gb", "c", sb.Deliver)
	wall := func() sim.Time { return k.Now() } // perfect host clocks for tests
	r.osA = New(k, sa, wall, 1.0, WatchdogConfig{})
	r.osB = New(k, sb, wall, 1.0, WatchdogConfig{})
	return r
}

// freezeGuest pauses a guest the way a hypervisor would: OS freeze plus
// port down.
func (r *rig) freeze(o *OS, port *netsim.Port) {
	o.Freeze()
	port.SetUp(false)
}

func (r *rig) thaw(o *OS, port *netsim.Port) {
	port.SetUp(true)
	o.Thaw()
}

func TestComputeProgramRunsToCompletion(t *testing.T) {
	r := newRig(t)
	prog := &computeProg{Dur: 100 * sim.Millisecond, Rounds: 5}
	pid := r.osA.Spawn(prog)
	r.k.RunFor(sim.Second)
	p, _ := r.osA.Proc(pid)
	if !p.Exited() || p.ExitCode() != 0 {
		t.Fatalf("exited=%v code=%d", p.Exited(), p.ExitCode())
	}
	if !prog.Done {
		t.Fatal("program state not advanced")
	}
	// 5 * 100ms of compute.
	if r.k.Now() < 500*sim.Millisecond {
		t.Fatalf("finished too early: %v", r.k.Now())
	}
}

func TestCPUFactorSlowsCompute(t *testing.T) {
	k := sim.NewKernel(7)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	s := tcp.NewStack(k, f, "g", tcp.DefaultConfig())
	f.Attach("g", "c", s.Deliver)
	o := New(k, s, func() sim.Time { return k.Now() }, 1.5, WatchdogConfig{})
	pid := o.Spawn(&computeProg{Dur: sim.Second, Rounds: 1})
	k.Run()
	p, _ := o.Proc(pid)
	if !p.Exited() {
		t.Fatal("did not exit")
	}
	if k.Now() != 1500*sim.Millisecond {
		t.Fatalf("virtualised compute took %v, want 1.5s", k.Now())
	}
}

// dialProg connects once and keeps the outcome.
type dialProg struct {
	Addr netsim.Addr
	Port uint16
	Res  *Result
}

func (p *dialProg) Next(api *API, res Result) Op {
	if p.Res == nil {
		p.Res = new(Result)
		return Connect(p.Addr, p.Port)
	}
	*p.Res = res
	return nil
}

// TestConnectFailsWhenPortsExhausted binds every ephemeral port, then
// requires the next ConnectOp to fail with tcp.ErrNoPorts at once. A key
// stays bound for the stack's life, so without the bound the port search
// never ends.
func TestConnectFailsWhenPortsExhausted(t *testing.T) {
	k := sim.NewKernel(1)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	s := tcp.NewStack(k, f, "g", tcp.DefaultConfig())
	f.Attach("g", "c", s.Deliver)
	o := New(k, s, func() sim.Time { return k.Now() }, 1, WatchdogConfig{})
	// Nothing is attached at "far": each SYN is dropped, and each
	// connection stays half open on its port.
	for i := 0; i < 1<<14; i++ {
		if _, err := s.Connect("far", 80); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	dial := &dialProg{Addr: "far", Port: 80}
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.Spawn(dial)
		k.RunFor(sim.Millisecond)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the connect after the last ephemeral port has not returned in 30 s")
	}
	if dial.Res == nil || !errors.Is(dial.Res.Err, tcp.ErrNoPorts) {
		t.Fatalf("connect with every port bound: %+v, want tcp.ErrNoPorts", dial.Res)
	}
	if n := len(s.Conns()); n != 1<<14 {
		t.Fatalf("stack holds %d connections, want %d", n, 1<<14)
	}
}

func TestPingPongBetweenGuests(t *testing.T) {
	r := newRig(t)
	r.osB.Listen(7000)
	r.osB.Spawn(&echoProg{Port: 7000, Size: 64})
	ping := &pingProg{Server: "gb", Port: 7000, Size: 64, Rounds: 10}
	pid := r.osA.Spawn(ping)
	r.k.RunFor(10 * sim.Second)
	p, _ := r.osA.Proc(pid)
	if !p.Exited() || p.ExitCode() != 0 {
		t.Fatalf("pinger exited=%v code=%d fail=%q", p.Exited(), p.ExitCode(), ping.Fail)
	}
	if ping.Done != 10 {
		t.Fatalf("completed %d rounds, want 10", ping.Done)
	}
}

func TestLargeMessagePingPong(t *testing.T) {
	r := newRig(t)
	r.osB.Listen(7000)
	r.osB.Spawn(&echoProg{Port: 7000, Size: 1 << 20})
	ping := &pingProg{Server: "gb", Port: 7000, Size: 1 << 20, Rounds: 3}
	pid := r.osA.Spawn(ping)
	r.k.RunFor(60 * sim.Second)
	p, _ := r.osA.Proc(pid)
	if !p.Exited() || p.ExitCode() != 0 {
		t.Fatalf("pinger code=%d fail=%q", p.ExitCode(), ping.Fail)
	}
}

func TestFreezeHaltsProgress(t *testing.T) {
	r := newRig(t)
	prog := &computeProg{Dur: 100 * sim.Millisecond, Rounds: 100}
	r.osA.Spawn(prog)
	r.k.RunFor(550 * sim.Millisecond)
	iBefore := prog.I
	r.freeze(r.osA, r.pA)
	r.k.RunFor(10 * sim.Second)
	if prog.I != iBefore {
		t.Fatalf("program advanced while frozen: %d -> %d", iBefore, prog.I)
	}
	r.thaw(r.osA, r.pA)
	r.k.RunFor(20 * sim.Second)
	if !prog.Done {
		t.Fatal("program did not finish after thaw")
	}
}

func TestFreezePreservesComputeRemainder(t *testing.T) {
	r := newRig(t)
	prog := &computeProg{Dur: sim.Second, Rounds: 1}
	pid := r.osA.Spawn(prog)
	r.k.RunFor(400 * sim.Millisecond) // 600ms of compute remains
	r.freeze(r.osA, r.pA)
	r.k.RunFor(time100())
	r.thaw(r.osA, r.pA)
	resumeAt := r.k.Now()
	r.k.Run()
	p, _ := r.osA.Proc(pid)
	if !p.Exited() {
		t.Fatal("did not finish")
	}
	if finish := r.k.Now() - resumeAt; finish != 600*sim.Millisecond {
		t.Fatalf("remaining compute after thaw = %v, want 600ms", finish)
	}
}

func time100() sim.Time { return 100 * sim.Second }

func TestJiffiesFreezeWallDoesNot(t *testing.T) {
	r := newRig(t)
	prog := &clockProg{SleepFor: sim.Second}
	r.osA.Spawn(prog)
	r.k.RunFor(500 * sim.Millisecond)
	r.freeze(r.osA, r.pA)
	r.k.RunFor(time100())
	r.thaw(r.osA, r.pA)
	r.k.Run()
	wallElapsed := prog.Wall1 - prog.Wall0
	jiffElapsed := prog.Jiff1 - prog.Jiff0
	if jiffElapsed != sim.Second {
		t.Fatalf("jiffies elapsed %v, want exactly 1s (frozen during pause)", jiffElapsed)
	}
	if wallElapsed != sim.Second+time100() {
		t.Fatalf("wall elapsed %v, want 1s + 100s pause (clock not virtualised)", wallElapsed)
	}
}

func TestSnapshotRestoreMidPingPong(t *testing.T) {
	r := newRig(t)
	r.osB.Listen(7000)
	r.osB.Spawn(&echoProg{Port: 7000, Size: 4096})
	ping := &pingProg{Server: "gb", Port: 7000, Size: 4096, Rounds: 50}
	r.osA.Spawn(ping)
	r.k.RunFor(20 * sim.Millisecond) // mid-exchange

	// Coordinated checkpoint of both guests.
	r.freeze(r.osA, r.pA)
	r.freeze(r.osB, r.pB)
	imgA, err := EncodeImagePayload(r.osA.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	imgB, err := EncodeImagePayload(r.osB.Snapshot())
	if err != nil {
		t.Fatal(err)
	}

	// The originals are destroyed with their node.
	r.pA.Detach()
	r.pB.Detach()
	r.k.RunFor(30 * sim.Second)

	// Restore both from their images.
	snapA, err := DecodeImagePayload(imgA)
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := DecodeImagePayload(imgB)
	if err != nil {
		t.Fatal(err)
	}
	wall := func() sim.Time { return r.k.Now() }
	osA2 := Restore(r.k, r.fabric, snapA, wall, 1.0)
	osB2 := Restore(r.k, r.fabric, snapB, wall, 1.0)
	r.fabric.Attach("ga", "c", osA2.Stack().Deliver)
	r.fabric.Attach("gb", "c", osB2.Stack().Deliver)
	osA2.Thaw()
	osB2.Thaw()
	r.k.RunFor(60 * sim.Second)

	p := osA2.Procs()[0]
	prog := p.Program().(*pingProg)
	if !p.Exited() || p.ExitCode() != 0 {
		t.Fatalf("restored pinger exited=%v code=%d fail=%q done=%d", p.Exited(), p.ExitCode(), prog.Fail, prog.Done)
	}
	if prog.Done != 50 {
		t.Fatalf("restored pinger completed %d rounds, want 50", prog.Done)
	}
}

func TestSnapshotRequiresFrozen(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot of running OS did not panic")
		}
	}()
	r.osA.Snapshot()
}

func TestWatchdogFiresOncePerFreezeCycle(t *testing.T) {
	k := sim.NewKernel(7)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	s := tcp.NewStack(k, f, "g", tcp.DefaultConfig())
	port := f.Attach("g", "c", s.Deliver)
	o := New(k, s, func() sim.Time { return k.Now() }, 1.0, DefaultWatchdog())
	o.Spawn(&computeProg{Dur: sim.Second, Rounds: 10000})

	k.RunFor(60 * sim.Second)
	if o.WatchdogTimeouts() != 0 {
		t.Fatalf("%d watchdog timeouts during normal running, want 0", o.WatchdogTimeouts())
	}
	for cycle := 1; cycle <= 3; cycle++ {
		o.Freeze()
		port.SetUp(false)
		k.RunFor(120 * sim.Second)
		port.SetUp(true)
		o.Thaw()
		k.RunFor(60 * sim.Second)
		if o.WatchdogTimeouts() != cycle {
			t.Fatalf("after %d freeze cycles: %d timeouts", cycle, o.WatchdogTimeouts())
		}
	}
	// The reports are in the kernel log.
	found := 0
	for _, e := range o.KernelLog() {
		if len(e.Msg) > 8 && e.Msg[:8] == "watchdog" {
			found++
		}
	}
	if found != 3 {
		t.Fatalf("kernel log has %d watchdog lines, want 3", found)
	}
}

func TestPeerDeathResetsAndProgramSeesError(t *testing.T) {
	r := newRig(t)
	r.osB.Listen(7000)
	r.osB.Spawn(&echoProg{Port: 7000, Size: 64})
	ping := &pingProg{Server: "gb", Port: 7000, Size: 64, Rounds: 1 << 30}
	pid := r.osA.Spawn(ping)
	r.k.RunFor(2 * sim.Second)
	// B's node dies (no freeze — it is gone).
	r.pB.SetUp(false)
	r.k.RunFor(60 * sim.Second)
	p, _ := r.osA.Proc(pid)
	if !p.Exited() || p.ExitCode() != 1 {
		t.Fatalf("pinger should fail after peer death: exited=%v code=%d", p.Exited(), p.ExitCode())
	}
	if ping.Fail == "" {
		t.Fatal("no failure reason recorded")
	}
}

func TestConnectToDeadHostFails(t *testing.T) {
	r := newRig(t)
	r.pB.SetUp(false)
	ping := &pingProg{Server: "gb", Port: 7000, Size: 8, Rounds: 1}
	pid := r.osA.Spawn(ping)
	r.k.RunFor(60 * sim.Second)
	p, _ := r.osA.Proc(pid)
	if !p.Exited() || p.ExitCode() != 1 {
		t.Fatalf("connect to dead host: exited=%v code=%d", p.Exited(), p.ExitCode())
	}
}

func TestKernelLogEntries(t *testing.T) {
	r := newRig(t)
	r.osA.Logf("hello %d", 42)
	log := r.osA.KernelLog()
	if len(log) != 1 || log[0].Msg != "hello 42" {
		t.Fatalf("log = %+v", log)
	}
}

// allExited reports whether every process of o has finished.
func allExited(o *OS) bool {
	for _, p := range o.procs {
		if !p.exited {
			return false
		}
	}
	return true
}

func TestAllExited(t *testing.T) {
	r := newRig(t)
	if !allExited(r.osA) {
		t.Fatal("empty OS should report all exited")
	}
	r.osA.Spawn(&computeProg{Dur: sim.Second, Rounds: 1})
	if allExited(r.osA) {
		t.Fatal("running proc reported as exited")
	}
	r.k.Run()
	if !allExited(r.osA) {
		t.Fatal("finished proc not reported as exited")
	}
}

func TestImageRoundTripPreservesLog(t *testing.T) {
	r := newRig(t)
	r.osA.Logf("before checkpoint")
	r.osA.Freeze()
	img, err := EncodeImagePayload(r.osA.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeImagePayload(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Log) != 1 || snap.Log[0].Msg != "before checkpoint" {
		t.Fatalf("restored log %+v", snap.Log)
	}
}

func TestMultipleProcessesInterleave(t *testing.T) {
	r := newRig(t)
	a := &computeProg{Dur: 10 * sim.Millisecond, Rounds: 10}
	b := &computeProg{Dur: 15 * sim.Millisecond, Rounds: 10}
	r.osA.Spawn(a)
	r.osA.Spawn(b)
	r.k.Run()
	if !a.Done || !b.Done {
		t.Fatal("processes did not both complete")
	}
}

func TestAPIListenIdempotent(t *testing.T) {
	r := newRig(t)
	r.osB.Listen(7000)
	// A program calling api.Listen on an already-listening port must not
	// panic (the MPI runtime re-runs its init listen after restore).
	prog := &listenTwiceProg{Port: 7000}
	pid := r.osB.Spawn(prog)
	r.k.RunFor(sim.Second)
	p, _ := r.osB.Proc(pid)
	if !p.Exited() || p.ExitCode() != 0 {
		t.Fatalf("exited=%v code=%d", p.Exited(), p.ExitCode())
	}
}

type listenTwiceProg struct {
	Port uint16
	Done bool
}

func (p *listenTwiceProg) Next(api *API, res Result) Op {
	if !p.Done {
		p.Done = true
		api.Listen(p.Port)
		api.Listen(p.Port)
		return &ComputeOp{Duration: 10 * sim.Millisecond}
	}
	api.Exit(0)
	return nil
}

func TestHostnameAndClockAPI(t *testing.T) {
	r := newRig(t)
	prog := &apiProbeProg{}
	r.osA.Spawn(prog)
	r.k.RunFor(sim.Second)
	if prog.Host != "ga" {
		t.Fatalf("hostname %q", prog.Host)
	}
	if prog.Wall < 0 || prog.Jiff < 0 {
		t.Fatal("clock probes negative")
	}
}

type apiProbeProg struct {
	Host string
	Wall sim.Time
	Jiff sim.Time
	Done bool
}

func (p *apiProbeProg) Next(api *API, res Result) Op {
	if !p.Done {
		p.Done = true
		p.Host = string(api.os.stack.Addr())
		p.Wall = api.WallClock()
		p.Jiff = api.Jiffies()
		api.Log("probe from %s", p.Host)
		return api.Compute(sim.Millisecond)
	}
	api.Exit(0)
	return nil
}

// TestReleaseFreesTimersAndIsIdempotent: Release leaves the guest's state
// (its image) untouched, a second Release changes nothing, and the freed
// kernel slots are what the next guest's timers reuse, so retiring one
// guest and restoring its image does not grow the kernel's slab.
func TestReleaseFreesTimersAndIsIdempotent(t *testing.T) {
	r := newRig(t)
	sa := tcp.NewStack(r.k, r.fabric, "gw", tcp.DefaultConfig())
	pw := r.fabric.Attach("gw", "c", sa.Deliver)
	wall := func() sim.Time { return r.k.Now() }
	o := New(r.k, sa, wall, 1.0, DefaultWatchdog())
	r.osB.Listen(7000)
	r.osB.Spawn(&echoProg{Port: 7000, Size: 4096})
	o.Spawn(&pingProg{Server: "gb", Port: 7000, Size: 4096, Rounds: 50})
	o.Spawn(&computeProg{Dur: sim.Second, Rounds: 100})
	r.k.RunFor(20 * sim.Millisecond) // mid-exchange: compute, watchdog and retransmit timers armed

	r.freeze(o, pw)
	before, err := EncodeImagePayload(o.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	slab, pending := r.k.SlabLen(), r.k.Pending()
	o.Release()
	if !o.frozen || r.k.SlabLen() != slab || r.k.Pending() != pending {
		t.Fatalf("release: frozen %v, slab %d -> %d, pending %d -> %d",
			o.frozen, slab, r.k.SlabLen(), pending, r.k.Pending())
	}
	o.Release()
	after, err := EncodeImagePayload(o.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(before) {
		t.Fatal("Release changed the guest's image")
	}
	if r.k.SlabLen() != slab || r.k.Pending() != pending {
		t.Fatalf("second release: slab %d -> %d, pending %d -> %d", slab, r.k.SlabLen(), pending, r.k.Pending())
	}

	pw.Detach()
	snap, err := DecodeImagePayload(before)
	if err != nil {
		t.Fatal(err)
	}
	o2 := Restore(r.k, r.fabric, snap, wall, 1.0)
	r.fabric.Attach("gw", "c", o2.Stack().Deliver)
	o2.Thaw()
	if got := r.k.SlabLen(); got != slab {
		t.Fatalf("restored guest grew the slab %d -> %d: released timers were not freed", slab, got)
	}
	r.k.RunFor(60 * sim.Second)
	ping := o2.Procs()[0].Program().(*pingProg)
	if ping.Done != 50 {
		t.Fatalf("restored pinger completed %d rounds, want 50 (fail %q)", ping.Done, ping.Fail)
	}
}
