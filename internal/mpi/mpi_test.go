package mpi

import (
	"fmt"
	"testing"

	"dvc/internal/guest"
	"dvc/internal/imgcodec"
	"dvc/internal/netsim"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

func init() {
	imgcodec.Register(&barrierApp{})
	imgcodec.Register(&ringApp{})
	imgcodec.Register(&bcastApp{})
	imgcodec.Register(&allreduceApp{})
	imgcodec.Register(&alltoallApp{})
	imgcodec.Register(&computeApp{})
}

// world builds n guests on one Ethernet cluster and launches an app.
type world struct {
	k     *sim.Kernel
	f     *netsim.Fabric
	oses  []*guest.OS
	ports []*netsim.Port
	pids  []guest.PID
}

func newWorld(t *testing.T, n int, makeApp func(rank int) App) *world {
	t.Helper()
	k := sim.NewKernel(123)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	w := &world{k: k, f: f}
	for i := 0; i < n; i++ {
		addr := netsim.Addr(fmt.Sprintf("r%d", i))
		s := tcp.NewStack(k, f, addr, tcp.DefaultConfig())
		w.ports = append(w.ports, f.Attach(addr, "c", s.Deliver))
		w.oses = append(w.oses, guest.New(k, s, func() sim.Time { return k.Now() }, 1.0, guest.WatchdogConfig{}))
	}
	w.pids = Launch(w.oses, 6000, makeApp)
	return w
}

// expectSuccess runs the world to completion and asserts all ranks exit 0.
func (w *world) expectSuccess(t *testing.T) {
	t.Helper()
	w.k.RunFor(10 * sim.Minute)
	for i, o := range w.oses {
		p, _ := o.Proc(w.pids[i])
		if !p.Exited() {
			t.Fatalf("rank %d never exited", i)
		}
		if p.ExitCode() != 0 {
			d := p.Program().(*Driver)
			t.Fatalf("rank %d exit %d (failed: %s)", i, p.ExitCode(), d.R.Failed)
		}
	}
}

func (w *world) app(rank int) App {
	p, _ := w.oses[rank].Proc(w.pids[rank])
	return p.Program().(*Driver).App
}

// barrierApp crosses Rounds barriers.
type barrierApp struct {
	Rounds int
	I      int
}

func (a *barrierApp) Step(c Ctx, prev Op) Op {
	if a.I < a.Rounds {
		a.I++
		return NewBarrier()
	}
	return nil
}

func TestMeshAndBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("P=%d", n), func(t *testing.T) {
			w := newWorld(t, n, func(int) App { return &barrierApp{Rounds: 3} })
			w.expectSuccess(t)
			for i := 0; i < n; i++ {
				if got := w.app(i).(*barrierApp).I; got != 3 {
					t.Fatalf("rank %d did %d barriers", i, got)
				}
			}
		})
	}
}

// ringApp passes an incrementing token around the ring once.
type ringApp struct {
	PC    int
	Token int
}

func (a *ringApp) Step(c Ctx, prev Op) Op {
	rt := c.RT
	next := (rt.Me + 1) % rt.Size
	from := (rt.Me - 1 + rt.Size) % rt.Size
	if rt.Size == 1 {
		a.Token = 1
		return nil
	}
	if rt.Me == 0 {
		switch a.PC {
		case 0:
			a.PC = 1
			return c.Send(next, 7, []byte{1})
		case 1:
			a.PC = 2
			return c.Recv(from, 7)
		default:
			a.Token = int(prev.(*RecvMsg).Data[0])
			return nil
		}
	}
	switch a.PC {
	case 0:
		a.PC = 1
		return c.Recv(from, 7)
	case 1:
		a.PC = 2
		tok := prev.(*RecvMsg).Data[0] + 1
		a.Token = int(tok)
		return c.Send(next, 7, []byte{tok})
	default:
		return nil
	}
}

func TestRingPassing(t *testing.T) {
	const n = 6
	w := newWorld(t, n, func(int) App { return &ringApp{} })
	w.expectSuccess(t)
	if got := w.app(0).(*ringApp).Token; got != n {
		t.Fatalf("token after full ring = %d, want %d", got, n)
	}
}

// bcastApp broadcasts a vector from root 2 and verifies everywhere.
type bcastApp struct {
	PC int
	OK bool
}

func (a *bcastApp) Step(c Ctx, prev Op) Op {
	rt := c.RT
	const root = 2
	switch a.PC {
	case 0:
		a.PC = 1
		var data []byte
		if rt.Me == root {
			data = Float64sToBytes([]float64{3.14, 2.71, 1.41})
		}
		return NewBcast(root, data)
	default:
		got := BytesToFloat64s(prev.(*Bcast).Data)
		a.OK = len(got) == 3 && got[0] == 3.14 && got[1] == 2.71 && got[2] == 1.41
		return nil
	}
}

func TestBcastBinomialTree(t *testing.T) {
	for _, n := range []int{3, 4, 7, 8, 13} {
		n := n
		t.Run(fmt.Sprintf("P=%d", n), func(t *testing.T) {
			w := newWorld(t, n, func(int) App { return &bcastApp{} })
			w.expectSuccess(t)
			for i := 0; i < n; i++ {
				if !w.app(i).(*bcastApp).OK {
					t.Fatalf("rank %d did not receive broadcast", i)
				}
			}
		})
	}
}

// allreduceApp sums (rank+1) across ranks.
type allreduceApp struct {
	PC  int
	Got float64
}

func (a *allreduceApp) Step(c Ctx, prev Op) Op {
	rt := c.RT
	switch a.PC {
	case 0:
		a.PC = 1
		return NewAllreduce(ReduceSum, []float64{float64(rt.Me + 1)})
	default:
		a.Got = prev.(*Allreduce).Data[0]
		return nil
	}
}

func TestAllreduceSum(t *testing.T) {
	const n = 9
	w := newWorld(t, n, func(int) App { return &allreduceApp{} })
	w.expectSuccess(t)
	want := float64(n * (n + 1) / 2)
	for i := 0; i < n; i++ {
		if got := w.app(i).(*allreduceApp).Got; got != want {
			t.Fatalf("rank %d allreduce = %v, want %v", i, got, want)
		}
	}
}

// alltoallApp exchanges rank-stamped blocks.
type alltoallApp struct {
	PC int
	OK bool
}

func (a *alltoallApp) Step(c Ctx, prev Op) Op {
	rt := c.RT
	switch a.PC {
	case 0:
		a.PC = 1
		blocks := make([][]byte, rt.Size)
		for d := range blocks {
			blocks[d] = []byte{byte(rt.Me), byte(d)}
		}
		return NewAlltoall(blocks)
	default:
		got := prev.(*Alltoall).Recvd
		a.OK = true
		for s, blk := range got {
			if len(blk) != 2 || int(blk[0]) != s || int(blk[1]) != rt.Me {
				a.OK = false
			}
		}
		return nil
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		n := n
		t.Run(fmt.Sprintf("P=%d", n), func(t *testing.T) {
			w := newWorld(t, n, func(int) App { return &alltoallApp{} })
			w.expectSuccess(t)
			for i := 0; i < n; i++ {
				if !w.app(i).(*alltoallApp).OK {
					t.Fatalf("rank %d got wrong blocks", i)
				}
			}
		})
	}
}

// computeApp interleaves compute and barriers (BSP shape).
type computeApp struct {
	Steps int
	I     int
	Phase int
}

func (a *computeApp) Step(c Ctx, prev Op) Op {
	if a.I >= a.Steps {
		return nil
	}
	if a.Phase == 0 {
		a.Phase = 1
		return c.Compute(10 * sim.Millisecond)
	}
	a.Phase = 0
	a.I++
	return NewBarrier()
}

func TestBSPComputeBarrierLoop(t *testing.T) {
	w := newWorld(t, 4, func(int) App { return &computeApp{Steps: 20} })
	w.expectSuccess(t)
}

func TestLargePayloadBcast(t *testing.T) {
	big := make([]float64, 1<<15) // 256 KB
	for i := range big {
		big[i] = float64(i)
	}
	w := newWorld(t, 4, func(int) App { return &bigBcastApp{Payload: big} })
	w.expectSuccess(t)
	for i := 0; i < 4; i++ {
		if !w.app(i).(*bigBcastApp).OK {
			t.Fatalf("rank %d corrupted large bcast", i)
		}
	}
}

type bigBcastApp struct {
	Payload []float64
	PC      int
	OK      bool
}

func (a *bigBcastApp) Step(c Ctx, prev Op) Op {
	switch a.PC {
	case 0:
		a.PC = 1
		var data []byte
		if c.RT.Me == 0 {
			data = Float64sToBytes(a.Payload)
		}
		return NewBcast(0, data)
	default:
		got := BytesToFloat64s(prev.(*Bcast).Data)
		a.OK = len(got) == len(a.Payload)
		if a.OK {
			for i := range got {
				if got[i] != a.Payload[i] {
					a.OK = false
					break
				}
			}
		}
		return nil
	}
}

func init() { imgcodec.Register(&bigBcastApp{}) }

func TestFloatBytesRoundTrip(t *testing.T) {
	in := []float64{0, 1.5, -2.25, 3e300, -4e-300}
	out := BytesToFloat64s(Float64sToBytes(in))
	if len(out) != len(in) {
		t.Fatal("length mismatch")
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, out[i], in[i])
		}
	}
}

func TestRankFailurePropagates(t *testing.T) {
	// A rank whose peer dies must exit non-zero, not hang.
	k := sim.NewKernel(321)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	var oses []*guest.OS
	var ports []*netsim.Port
	for i := 0; i < 2; i++ {
		addr := netsim.Addr(fmt.Sprintf("r%d", i))
		s := tcp.NewStack(k, f, addr, tcp.DefaultConfig())
		ports = append(ports, f.Attach(addr, "c", s.Deliver))
		oses = append(oses, guest.New(k, s, func() sim.Time { return k.Now() }, 1.0, guest.WatchdogConfig{}))
	}
	pids := Launch(oses, 6000, func(int) App { return &barrierApp{Rounds: 1 << 20} })
	k.RunFor(2 * sim.Second)
	ports[1].SetUp(false) // rank 1's host dies
	k.RunFor(5 * sim.Minute)
	p, _ := oses[0].Proc(pids[0])
	if !p.Exited() || p.ExitCode() == 0 {
		t.Fatalf("rank 0 should fail after peer death: exited=%v code=%d", p.Exited(), p.ExitCode())
	}
}
