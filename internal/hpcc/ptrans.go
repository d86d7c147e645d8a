package hpcc

import (
	"math"

	"dvc/internal/imgcodec"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&PTRANS{})
}

// PTRANS is the HPCC parallel transpose: A ← βA + αAᵀ, repeated Reps
// times with a barrier between repetitions. Every repetition moves
// (almost) the whole matrix across the wire, which is why the paper used
// it as "the most important test for verifying that our conclusions
// about consistent network states were correct".
//
// Verification is fully local: after k repetitions, A_k = c1·A0 + c2·A0ᵀ
// with (c1,c2) following a linear recurrence, and any element of A0 is
// regenerable from the seed.
type PTRANS struct {
	// Inputs.
	N           int
	Seed        int64
	Alpha, Beta float64
	Reps        int
	GFlops      float64

	// Distributed state: rows of A, cyclic by row index.
	Rows map[int][]float64

	// Progress.
	PC  int
	Rep int

	// Timing.
	StartWall, EndWall sim.Time
	StartJiff, EndJiff sim.Time

	// Results (every rank verifies its own rows).
	Finished bool
	MaxErr   float64
	Passed   bool
}

// NewPTRANS constructs a PTRANS instance for one rank.
func NewPTRANS(n int, seed int64, reps int, gflops float64) *PTRANS {
	return &PTRANS{N: n, Seed: seed, Alpha: 1.0, Beta: 0.7, Reps: reps, GFlops: gflops}
}

// PTRANS phases.
const (
	ptInit = iota
	ptGenDone
	ptExchange
	ptUpdate
	ptBarrier
	ptVerify
	ptDone
)

// Step implements mpi.App.
func (p *PTRANS) Step(c mpi.Ctx, prev mpi.Op) mpi.Op {
	rt := c.RT
	me, size := rt.Me, rt.Size
	for {
		switch p.PC {
		case ptInit:
			p.StartWall, p.StartJiff = c.WallClock(), c.Jiffies()
			p.Rows = make(map[int][]float64)
			for i := me; i < p.N; i += size {
				row := make([]float64, p.N)
				for j := 0; j < p.N; j++ {
					row[j] = Elem(p.Seed, i, j)
				}
				p.Rows[i] = row
			}
			p.PC = ptGenDone
			return c.Compute(FlopsTime(float64(len(p.Rows)*p.N)*3, p.GFlops))

		case ptGenDone:
			p.Rep = 0
			p.PC = ptExchange

		case ptExchange:
			if p.Rep >= p.Reps {
				p.PC = ptVerify
				continue
			}
			// Block for destination d: my elements A[i][j] with j owned
			// by d, rows ascending, columns ascending.
			blocks := make([][]byte, size)
			for d := 0; d < size; d++ {
				var vals []float64
				for i := me; i < p.N; i += size {
					row := p.Rows[i]
					for j := d; j < p.N; j += size {
						vals = append(vals, row[j])
					}
				}
				blocks[d] = mpi.Float64sToBytes(vals)
			}
			p.PC = ptUpdate
			return mpi.NewAlltoall(blocks)

		case ptUpdate:
			recvd := prev.(*mpi.Alltoall).Recvd
			// Element m of the block from rank r is A[i][j] with i the
			// m/|myCols|-th row of r and j my m%|myCols|-th column...
			// reconstructed by walking the same loop order.
			t := make(map[int][]float64, len(p.Rows))
			for j := me; j < p.N; j += size {
				t[j] = make([]float64, p.N)
			}
			for r := 0; r < size; r++ {
				vals := mpi.BytesToFloat64s(recvd[r])
				idx := 0
				for i := r; i < p.N; i += size {
					for j := me; j < p.N; j += size {
						// vals[idx] = A[i][j]; contributes to (Aᵀ)[j][i].
						t[j][i] = vals[idx]
						idx++
					}
				}
			}
			flops := 0.0
			for j := me; j < p.N; j += size {
				row := p.Rows[j]
				tr := t[j]
				for i := 0; i < p.N; i++ {
					row[i] = p.Beta*row[i] + p.Alpha*tr[i]
				}
				flops += 3 * float64(p.N)
			}
			p.Rep++
			p.PC = ptBarrier
			return c.Compute(FlopsTime(flops, p.GFlops))

		case ptBarrier:
			p.PC = ptExchange
			return mpi.NewBarrier()

		case ptVerify:
			p.EndWall, p.EndJiff = c.WallClock(), c.Jiffies()
			// Coefficients after Reps applications of A ← βA + αAᵀ.
			c1, c2 := 1.0, 0.0
			for r := 0; r < p.Reps; r++ {
				c1, c2 = p.Beta*c1+p.Alpha*c2, p.Beta*c2+p.Alpha*c1
			}
			p.MaxErr = 0
			for i := me; i < p.N; i += size {
				row := p.Rows[i]
				for j := 0; j < p.N; j++ {
					want := c1*Elem(p.Seed, i, j) + c2*Elem(p.Seed, j, i)
					if e := math.Abs(row[j] - want); e > p.MaxErr {
						p.MaxErr = e
					}
				}
			}
			p.Passed = p.MaxErr < 1e-9*math.Pow(math.Abs(p.Alpha)+math.Abs(p.Beta), float64(p.Reps))*float64(p.N)
			p.Finished = true
			c.Log("ptrans: N=%d reps=%d maxerr=%.3g passed=%v wall=%v", p.N, p.Reps, p.MaxErr, p.Passed, p.EndWall-p.StartWall)
			p.PC = ptDone
			return c.Compute(FlopsTime(2*float64(len(p.Rows))*float64(p.N), p.GFlops))

		case ptDone:
			return nil
		}
	}
}

// WallTime returns the wall-clock duration PTRANS would report.
func (p *PTRANS) WallTime() sim.Time { return p.EndWall - p.StartWall }

// CPUTime returns guest-monotonic duration.
func (p *PTRANS) CPUTime() sim.Time { return p.EndJiff - p.StartJiff }
