package hpcc

import (
	"math"

	"dvc/internal/imgcodec"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&HPL{})
}

// HPL is the High-Performance Linpack workload: solve Ax=b by LU
// factorisation with partial pivoting, distributed row-cyclically. The
// matrix is augmented with b so pivoting carries the right-hand side
// along. Time is charged from flop counts at the configured rate.
//
// Rank 0 gathers the factored system at the end, back-substitutes, and
// verifies the HPL scaled residual against the regenerated input.
type HPL struct {
	// Inputs.
	N      int
	Seed   int64
	GFlops float64

	// Distributed state.
	Rows map[int][]float64 // global row index -> augmented row (N+1 wide)

	// Progress.
	PC        int
	K         int       // current panel column
	PivotRow  int       // global pivot row for column K
	PivotSeg  []float64 // pivot row segment [K..N]
	GatherJ   int       // gather loop index (root)
	AllRows   [][]float64
	FlopsDone float64

	// Timing (what HPL reports — wall clock, which jumps on restore).
	StartWall, EndWall sim.Time
	StartJiff, EndJiff sim.Time

	// Results (valid on rank 0 after completion).
	Finished bool
	Residual float64
	Passed   bool
}

// NewHPL constructs an HPL instance for one rank; every rank receives an
// identical copy.
func NewHPL(n int, seed int64, gflops float64) *HPL {
	return &HPL{N: n, Seed: seed, GFlops: gflops}
}

// HPL phases.
const (
	hplInit = iota
	hplGenDone
	hplPivotSearch
	hplPivotFound
	hplSwapSend
	hplSwapRecv
	hplSwapDone
	hplBcast
	hplUpdate
	hplGatherSend
	hplGatherRecv
	hplVerify
	hplDone
)

// localRowsBelow returns this rank's global row indices >= k, ascending.
func (h *HPL) localRowsBelow(me, size, k int) []int {
	var out []int
	start := k + ((me - k%size + size) % size)
	for i := start; i < h.N; i += size {
		out = append(out, i)
	}
	return out
}

// Step implements mpi.App.
func (h *HPL) Step(c mpi.Ctx, prev mpi.Op) mpi.Op {
	rt := c.RT
	me, size := rt.Me, rt.Size
	for {
		switch h.PC {
		case hplInit:
			h.StartWall, h.StartJiff = c.WallClock(), c.Jiffies()
			h.Rows = make(map[int][]float64)
			for i := me; i < h.N; i += size {
				row := make([]float64, h.N+1)
				for j := 0; j < h.N; j++ {
					row[j] = Elem(h.Seed, i, j)
				}
				row[h.N] = RHS(h.Seed, i)
				h.Rows[i] = row
			}
			h.PC = hplGenDone
			return c.Compute(FlopsTime(float64(len(h.Rows)*(h.N+1))*3, h.GFlops))

		case hplGenDone:
			h.K = 0
			h.PC = hplPivotSearch

		case hplPivotSearch:
			if h.K >= h.N {
				h.PC = hplGatherSend
				continue
			}
			best, bestRow := -1.0, h.N
			for _, i := range h.localRowsBelow(me, size, h.K) {
				if v := math.Abs(h.Rows[i][h.K]); v > best {
					best, bestRow = v, i
				}
			}
			h.PC = hplPivotFound
			return mpi.NewAllreduce(mpi.ReduceMaxLoc, []float64{best, float64(bestRow)})

		case hplPivotFound:
			pair := prev.(*mpi.Allreduce).Data
			if pair[0] <= 0 {
				rt.Fail("hpl: singular matrix at k=%d", h.K)
				return nil
			}
			h.PivotRow = int(pair[1])
			h.PC = hplSwapSend

		case hplSwapSend:
			k, p := h.K, h.PivotRow
			if p == k {
				h.PC = hplBcast
				continue
			}
			ok, op := owner(k, size), owner(p, size)
			if ok == op {
				if me == ok {
					h.Rows[k], h.Rows[p] = h.Rows[p], h.Rows[k]
				}
				h.PC = hplBcast
				continue
			}
			switch me {
			case ok:
				h.PC = hplSwapRecv
				return c.Send(op, 1000+k, mpi.Float64sToBytes(h.Rows[k]))
			case op:
				h.PC = hplSwapRecv
				return c.Send(ok, 1000+k, mpi.Float64sToBytes(h.Rows[p]))
			default:
				h.PC = hplBcast
				continue
			}

		case hplSwapRecv:
			k, p := h.K, h.PivotRow
			ok, op := owner(k, size), owner(p, size)
			h.PC = hplSwapDone
			if me == ok {
				return c.Recv(op, 1000+k)
			}
			return c.Recv(ok, 1000+k)

		case hplSwapDone:
			row := mpi.BytesToFloat64s(prev.(*mpi.RecvMsg).Data)
			if me == owner(h.K, size) {
				h.Rows[h.K] = row
			} else {
				h.Rows[h.PivotRow] = row
			}
			h.PC = hplBcast

		case hplBcast:
			k := h.K
			root := owner(k, size)
			var seg []byte
			if me == root {
				seg = mpi.Float64sToBytes(h.Rows[k][k:])
			}
			h.PC = hplUpdate
			return mpi.NewBcast(root, seg)

		case hplUpdate:
			h.PivotSeg = mpi.BytesToFloat64s(prev.(*mpi.Bcast).Data)
			k := h.K
			pr := h.PivotSeg // pr[0] == A[k][k], pr[m] == A[k][k+m]
			flops := 0.0
			for _, i := range h.localRowsBelow(me, size, k+1) {
				row := h.Rows[i]
				l := row[k] / pr[0]
				row[k] = l
				for j := k + 1; j <= h.N; j++ {
					row[j] -= l * pr[j-k]
				}
				flops += 2 * float64(h.N+1-k)
			}
			h.FlopsDone += flops
			h.K++
			h.PC = hplPivotSearch
			if flops > 0 {
				return c.Compute(FlopsTime(flops, h.GFlops))
			}

		case hplGatherSend:
			// Everyone but rank 0 ships its rows (ascending global index).
			if me == 0 {
				h.AllRows = make([][]float64, h.N)
				for i, row := range h.Rows {
					h.AllRows[i] = row
				}
				h.GatherJ = 0
				h.PC = hplGatherRecv
				continue
			}
			var flat []float64
			for i := me; i < h.N; i += size {
				flat = append(flat, float64(i))
				flat = append(flat, h.Rows[i]...)
			}
			h.PC = hplVerify
			return c.Send(0, 2000, mpi.Float64sToBytes(flat))

		case hplGatherRecv:
			if h.GatherJ > 0 {
				// prev is the rows shipped by rank GatherJ.
				flat := mpi.BytesToFloat64s(prev.(*mpi.RecvMsg).Data)
				w := h.N + 2
				for off := 0; off+w <= len(flat); off += w {
					i := int(flat[off])
					h.AllRows[i] = flat[off+1 : off+1+h.N+1]
				}
			}
			if h.GatherJ < size-1 {
				h.GatherJ++
				return c.Recv(h.GatherJ, 2000)
			}
			h.PC = hplVerify

		case hplVerify:
			h.EndWall, h.EndJiff = c.WallClock(), c.Jiffies()
			if me == 0 {
				x := make([]float64, h.N)
				for i := h.N - 1; i >= 0; i-- {
					u := h.AllRows[i]
					v := u[h.N]
					for j := i + 1; j < h.N; j++ {
						v -= u[j] * x[j]
					}
					x[i] = v / u[i]
				}
				h.Residual = residualNorm(h.Seed, h.N, x)
				h.Passed = h.Residual < 16.0
				c.Log("hpl: N=%d residual=%.3g passed=%v wall=%v", h.N, h.Residual, h.Passed, h.EndWall-h.StartWall)
			} else {
				h.Passed = true
			}
			h.Finished = true
			h.PC = hplDone
			// Verification cost on the root (O(N^2) solve + O(N^2) check).
			if me == 0 {
				return c.Compute(FlopsTime(3*float64(h.N)*float64(h.N), h.GFlops))
			}

		case hplDone:
			return nil
		}
	}
}

// WallTime returns the wall-clock duration HPL would report.
func (h *HPL) WallTime() sim.Time { return h.EndWall - h.StartWall }

// CPUTime returns the guest-monotonic duration (unaffected by
// save/restore gaps).
func (h *HPL) CPUTime() sim.Time { return h.EndJiff - h.StartJiff }
