package hpcc

import (
	"encoding/binary"

	"dvc/internal/imgcodec"
	"dvc/internal/mpi"
	"dvc/internal/sim"
)

func init() {
	imgcodec.Register(&RandomAccess{})
}

// RandomAccess is the HPCC GUPS kernel: every rank generates a
// deterministic stream of XOR updates aimed at random slots of a table
// distributed across all ranks. Updates are routed in batches with
// all-to-all exchanges, applied for real, and verified exactly at the end
// (every rank can regenerate every stream and recompute its own table
// portion).
//
// The kernel is latency-bound fine-grained communication — the opposite
// corner of the workload space from HPL — which is what makes it a
// useful extra point for the virtualisation-overhead experiment.
type RandomAccess struct {
	// TableBits sizes the global table at 2^TableBits entries.
	TableBits int
	// Batches and BatchPerRank size the update stream.
	Batches      int
	BatchPerRank int
	GFlops       float64

	Table []uint64 // this rank's slice, block-distributed
	Batch int
	PC    int

	StartWall, EndWall sim.Time
	Finished           bool
	Verified           bool
	GUPS               float64
}

// NewRandomAccess constructs the kernel.
func NewRandomAccess(tableBits, batches, batchPerRank int, gflops float64) *RandomAccess {
	return &RandomAccess{TableBits: tableBits, Batches: batches, BatchPerRank: batchPerRank, GFlops: gflops}
}

// raStream deterministically generates update u of batch b for rank r:
// returns the global table index and the XOR value.
func raStream(seed int64, rank, batch, u, tableBits int) (int, uint64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(rank)*0xBF58476D1CE4E5B9 ^
		uint64(batch)*0x94D049BB133111EB ^ uint64(u)*0xD6E8FEB86659FD93
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return int(x & ((1 << tableBits) - 1)), x | 1
}

const raSeed = 0x5DEECE66D

// tableRange returns [lo, hi) of the global indices rank r owns.
func (ra *RandomAccess) tableRange(r, size int) (int, int) {
	total := 1 << ra.TableBits
	per := total / size
	lo := r * per
	hi := lo + per
	if r == size-1 {
		hi = total
	}
	return lo, hi
}

func (ra *RandomAccess) owner(idx, size int) int {
	total := 1 << ra.TableBits
	per := total / size
	r := idx / per
	if r >= size {
		r = size - 1
	}
	return r
}

// Step implements mpi.App.
func (ra *RandomAccess) Step(c mpi.Ctx, prev mpi.Op) mpi.Op {
	rt := c.RT
	me, size := rt.Me, rt.Size
	for {
		switch ra.PC {
		case 0: // init: table[i] = i
			ra.StartWall = c.WallClock()
			lo, hi := ra.tableRange(me, size)
			ra.Table = make([]uint64, hi-lo)
			for i := range ra.Table {
				ra.Table[i] = uint64(lo + i)
			}
			ra.PC = 1

		case 1: // route one batch of updates
			if ra.Batch >= ra.Batches {
				ra.PC = 3
				continue
			}
			blocks := make([][]byte, size)
			bufs := make([][]uint64, size)
			for u := 0; u < ra.BatchPerRank; u++ {
				idx, val := raStream(raSeed, me, ra.Batch, u, ra.TableBits)
				d := ra.owner(idx, size)
				bufs[d] = append(bufs[d], uint64(idx), val)
			}
			for d := range blocks {
				b := make([]byte, 8*len(bufs[d]))
				for i, v := range bufs[d] {
					binary.LittleEndian.PutUint64(b[8*i:], v)
				}
				blocks[d] = b
			}
			ra.PC = 2
			return mpi.NewAlltoall(blocks)

		case 2: // apply arrived updates
			recvd := prev.(*mpi.Alltoall).Recvd
			lo, _ := ra.tableRange(me, size)
			applied := 0
			for _, blk := range recvd {
				for off := 0; off+16 <= len(blk); off += 16 {
					idx := int(binary.LittleEndian.Uint64(blk[off:]))
					val := binary.LittleEndian.Uint64(blk[off+8:])
					ra.Table[idx-lo] ^= val
					applied++
				}
			}
			ra.Batch++
			ra.PC = 1
			// A few ops per update (gen, route, xor).
			return c.Compute(FlopsTime(6*float64(applied+ra.BatchPerRank), ra.GFlops))

		case 3: // verify exactly: regenerate all streams for my range
			ra.EndWall = c.WallClock()
			lo, hi := ra.tableRange(me, size)
			want := make([]uint64, hi-lo)
			for i := range want {
				want[i] = uint64(lo + i)
			}
			for r := 0; r < size; r++ {
				for b := 0; b < ra.Batches; b++ {
					for u := 0; u < ra.BatchPerRank; u++ {
						idx, val := raStream(raSeed, r, b, u, ra.TableBits)
						if idx >= lo && idx < hi {
							want[idx-lo] ^= val
						}
					}
				}
			}
			ra.Verified = true
			for i := range want {
				if ra.Table[i] != want[i] {
					ra.Verified = false
					break
				}
			}
			ra.Finished = true
			total := float64(ra.Batches) * float64(ra.BatchPerRank) * float64(size)
			if elapsed := (ra.EndWall - ra.StartWall).Seconds(); elapsed > 0 {
				ra.GUPS = total / elapsed / 1e9
			}
			c.Log("randomaccess: %d updates, %.4g GUPS, verified=%v", int(total), ra.GUPS, ra.Verified)
			ra.PC = 4

		case 4:
			return nil
		}
	}
}

// WallTime returns the reported wall duration.
func (ra *RandomAccess) WallTime() sim.Time { return ra.EndWall - ra.StartWall }
