package mpi

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dvc/internal/guest"
	"dvc/internal/imgcodec"
	"dvc/internal/netsim"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

func init() {
	imgcodec.Register(&streamApp{})
}

// streamApp is the data-plane benchmark workload: rank 0 streams Rounds
// messages of MsgBytes to rank 1, which receives them all. Every payload
// byte crosses the full path mpi framing -> guest socket ops -> tcp
// send/receive queues -> netsim fabric, which is exactly the path the
// zero-copy data plane optimises.
type streamApp struct {
	Rounds   int
	MsgBytes int
	I        int
	Done     bool
}

func (a *streamApp) Step(c Ctx, prev Op) Op {
	rt := c.RT
	if a.I >= a.Rounds {
		a.Done = true
		return nil
	}
	a.I++
	if rt.Me == 0 {
		return c.Send(1, 7, make([]byte, a.MsgBytes))
	}
	return c.Recv(0, 7)
}

// runStream pushes rounds*msgBytes of payload through a two-rank world
// and returns the number of payload bytes delivered to rank 1.
func runStream(tb testing.TB, rounds, msgBytes int) uint64 {
	k := sim.NewKernel(7)
	f := netsim.NewFabric(k)
	f.AddCluster("c", netsim.EthernetGigE())
	oses := make([]*guest.OS, 2)
	for i := range oses {
		addr := netsim.Addr(fmt.Sprintf("n%d", i))
		s := tcp.NewStack(k, f, addr, tcp.DefaultConfig())
		f.Attach(addr, "c", s.Deliver)
		oses[i] = guest.New(k, s, k.Now, 1.0, guest.WatchdogConfig{})
	}
	pids := Launch(oses, 6000, func(rank int) App {
		return &streamApp{Rounds: rounds, MsgBytes: msgBytes}
	})
	k.RunFor(10 * sim.Minute)
	for i, o := range oses {
		p, _ := o.Proc(pids[i])
		if !p.Exited() || p.ExitCode() != 0 {
			tb.Fatalf("rank %d did not finish cleanly (exited=%v code=%d)", i, p.Exited(), p.ExitCode())
		}
	}
	return uint64(rounds) * uint64(msgBytes)
}

// BenchmarkDataPlaneThroughput measures simulated payload bytes moved per
// real second through the whole data plane (mpi -> guest -> tcp ->
// netsim), and — the headline number for the zero-copy rewrite — how many
// bytes the Go runtime allocates per payload byte moved. The application
// buffer itself costs 1 B/B by construction (the sender materialises each
// message), so the data plane's own tax is alloc_B_per_payload_B - 1.
// TestSendRecvCopyCount gates the allocation ratio. Run:
//
//	go test -run '^$' -bench BenchmarkDataPlaneThroughput -benchmem ./internal/mpi
func BenchmarkDataPlaneThroughput(b *testing.B) {
	for _, bc := range []struct {
		name             string
		rounds, msgBytes int
	}{
		{"bulk256KB", 64, 256 << 10},
		{"small4KB", 2048, 4 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var payload uint64
			var allocated uint64
			var wall time.Duration
			var ms runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				start := time.Now()
				payload += runStream(b, bc.rounds, bc.msgBytes)
				wall += time.Since(start)
				runtime.ReadMemStats(&ms)
				allocated += ms.TotalAlloc - before
			}
			b.StopTimer()
			allocPerByte := float64(allocated) / float64(payload)
			mbps := float64(payload) / 1e6 / wall.Seconds()
			b.ReportMetric(allocPerByte, "alloc_B/payload_B")
			b.ReportMetric(mbps, "payload_MB/s")
		})
	}
}
