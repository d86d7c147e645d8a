package hpcc

import (
	"dvc/internal/imgcodec"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&Halo{})
}

// Halo is a ring halo-exchange kernel: every Period, each rank computes
// and then exchanges MsgBytes with both ring neighbours. It produces the
// continuous all-node communication LSC is sensitive to, at a small
// fraction of PTRANS's event cost — the experiment harness uses it for
// the large sweeps.
type Halo struct {
	Rounds   int
	Period   sim.Time
	MsgBytes int

	PC       int
	I        int
	Finished bool

	StartWall, EndWall sim.Time
}

// haloZeros is the shared body of every halo message up to its size. No
// receiver reads halo bodies, so instead of zero-filling two fresh buffers
// per round every rank sends a clipped slice of this array. That is the one
// sanctioned exception to payload's fresh-buffer-per-message convention:
// nothing ever writes the array (payload contract rule 1), so it is safe to
// share across kernels, partitioned-engine workers and concurrent fleet
// trials, which only read it. Images carry the bytes, not the sharing, so
// images and digests are the same as with fresh buffers.
var haloZeros [64 << 10]byte

// haloBody returns a read-only zero body of n bytes.
func haloBody(n int) []byte {
	if n > len(haloZeros) {
		return make([]byte, n)
	}
	return haloZeros[:n:n]
}

// NewHalo constructs the kernel.
func NewHalo(rounds int, period sim.Time, msgBytes int) *Halo {
	return &Halo{Rounds: rounds, Period: period, MsgBytes: msgBytes}
}

// Step implements mpi.App.
func (h *Halo) Step(c mpi.Ctx, prev mpi.Op) mpi.Op {
	rt := c.RT
	if rt.Size < 2 {
		h.Finished = true
		return nil
	}
	right := (rt.Me + 1) % rt.Size
	left := (rt.Me - 1 + rt.Size) % rt.Size
	for {
		switch h.PC {
		case 0:
			h.StartWall = c.WallClock()
			h.PC = 1
		case 1:
			if h.I >= h.Rounds {
				h.EndWall = c.WallClock()
				h.Finished = true
				return nil
			}
			h.PC = 2
			return c.Compute(h.Period)
		case 2:
			h.PC = 3
			return c.Send(right, 5, haloBody(h.MsgBytes))
		case 3:
			h.PC = 4
			return c.Send(left, 6, haloBody(h.MsgBytes))
		case 4:
			h.PC = 5
			return c.Recv(left, 5)
		case 5:
			h.PC = 6
			return c.Recv(right, 6)
		case 6:
			h.I++
			h.PC = 1
		}
	}
}
