package storage

import (
	"hash/crc32"
	"testing"

	"dvc/internal/payload"
	"dvc/internal/sim"
	"dvc/internal/vm"
)

// deltaEpochAllocs measures the allocations of one steady-state delta
// epoch on a guest of the given chunk count: a delta Write, run the
// transfer, Delete the previous generation, GC. A sixteen-chunk template
// stays untouched, the next half of RAM is rewritten every epoch and the
// rest stays zero, so every chunk kind is pinned, released and
// collected.
func deltaEpochAllocs(chunks int) float64 {
	const runs = 50
	k := sim.NewKernel(1)
	s := newStore(k, 1000e6, 0)
	data := []byte("steady-state epoch")
	base := vm.PageTable{Lineage: 7, Template: 16 << 20, ChunkSize: 1 << 20, RAM: int64(chunks) << 20}
	// Every epoch's image is built up front so the measurement sees the
	// store alone, not the capture.
	imgs := make([]*vm.Image, runs+4)
	for i := range imgs {
		pt := base
		pt.Versions = make([]uint32, chunks)
		for ci := 16; ci < 16+chunks/2; ci++ {
			pt.Versions[ci] = uint32(i + 1)
		}
		imgs[i] = &vm.Image{
			DomainName: "a", Addr: "x", RAMBytes: pt.RAM,
			Data: payload.FromChunks(data), Checksum: crc32.ChecksumIEEE(data),
			PayloadBytes: 1, Pages: &pt, Delta: true,
		}
	}
	keys := [2]string{"ckpt/a/0", "ckpt/a/1"}
	epoch := 0
	step := func() {
		if _, err := s.Write(keys[epoch%2], imgs[epoch], nil); err != nil {
			panic(err)
		}
		k.Run()
		s.Delete(keys[(epoch+1)%2])
		s.GC()
		epoch++
	}
	// Warm up: slots and maps reach their steady-state capacity.
	for epoch < 3 {
		step()
	}
	return testing.AllocsPerRun(runs, step)
}

// TestDeltaEpochAllocsFlat is the delta pool's allocation gate: a
// steady-state epoch's allocation count does not depend on how many
// chunks the guest has. Pinning, releasing and collecting chunks must
// allocate nothing per chunk; only the per-write objects remain.
func TestDeltaEpochAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	small, large := deltaEpochAllocs(256), deltaEpochAllocs(512)
	t.Logf("allocs per epoch: %.0f at 256 chunks, %.0f at 512 chunks", small, large)
	if small != large {
		t.Fatalf("allocs per epoch grow with chunk count: %.0f at 256 chunks, %.0f at 512", small, large)
	}
}
