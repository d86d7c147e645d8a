package hpcc

import (
	"dvc/internal/guest"
	"dvc/internal/imgcodec"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&SeqJob{})
	imgcodec.Register(&PingPong{})
}

// SeqJob is a single-node compute-bound job (a stand-in for the paper's
// "sequential jobs"): Rounds compute slices of RoundFlops each, no
// communication. It is a plain guest.Program — no MPI runtime.
type SeqJob struct {
	Rounds     int
	RoundFlops float64
	GFlops     float64

	I                  int
	StartWall, EndWall sim.Time
	StartJiff, EndJiff sim.Time
	Finished           bool
}

// NewSeqJob constructs a sequential job.
func NewSeqJob(rounds int, roundFlops, gflops float64) *SeqJob {
	return &SeqJob{Rounds: rounds, RoundFlops: roundFlops, GFlops: gflops}
}

// Next implements guest.Program.
func (s *SeqJob) Next(api *guest.API, res guest.Result) guest.Op {
	if s.I == 0 {
		s.StartWall, s.StartJiff = api.WallClock(), api.Jiffies()
	}
	if s.I < s.Rounds {
		s.I++
		return api.Compute(FlopsTime(s.RoundFlops, s.GFlops))
	}
	if !s.Finished {
		s.Finished = true
		s.EndWall, s.EndJiff = api.WallClock(), api.Jiffies()
		api.Log("seq: rounds=%d wall=%v", s.Rounds, s.EndWall-s.StartWall)
	}
	api.Exit(0)
	return nil
}

// WallTime returns the job's reported wall duration.
func (s *SeqJob) WallTime() sim.Time { return s.EndWall - s.StartWall }

// PingPong is the latency/bandwidth microbenchmark between ranks 0 and 1
// (other ranks exit immediately). Rank 0 reports RTT and bandwidth.
type PingPong struct {
	MsgBytes int
	Iters    int
	Warmup   int

	PC   int
	I    int
	Done bool

	StartJiff, EndJiff sim.Time
	// Results on rank 0.
	AvgRTT    sim.Time
	Bandwidth float64 // bytes/s, one direction, from timed phase
}

// NewPingPong constructs the microbenchmark.
func NewPingPong(msgBytes, iters int) *PingPong {
	return &PingPong{MsgBytes: msgBytes, Iters: iters, Warmup: 2}
}

// Step implements mpi.App.
func (p *PingPong) Step(c mpi.Ctx, prev mpi.Op) mpi.Op {
	rt := c.RT
	if rt.Me > 1 {
		return nil
	}
	payload := func() []byte { return make([]byte, p.MsgBytes) }
	total := p.Warmup + p.Iters
	for {
		switch p.PC {
		case 0:
			if p.I == p.Warmup {
				p.StartJiff = c.Jiffies()
			}
			if p.I >= total {
				if rt.Me == 0 {
					elapsed := c.Jiffies() - p.StartJiff
					p.AvgRTT = elapsed / sim.Time(p.Iters)
					if p.AvgRTT > 0 {
						p.Bandwidth = float64(p.MsgBytes) / (p.AvgRTT.Seconds() / 2)
					}
				}
				p.Done = true
				return nil
			}
			p.PC = 1
			if rt.Me == 0 {
				return c.Send(1, 42, payload())
			}
			return c.Recv(0, 42)
		case 1:
			p.PC = 2
			if rt.Me == 0 {
				return c.Recv(1, 42)
			}
			return c.Send(0, 42, payload())
		default:
			p.I++
			p.PC = 0
		}
	}
}
