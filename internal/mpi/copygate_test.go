package mpi

import (
	"runtime"
	"testing"
)

// TestSendRecvCopyCount is the copy gate for the zero-copy data plane:
// it bounds how many bytes the Go runtime may allocate per payload byte
// moved end to end (mpi framing -> guest socket ops -> tcp queues ->
// netsim -> receiver). The budget per payload byte is roughly:
//
//	1.0  the sender's application buffer (built fresh per message, by
//	     construction of this test's workload; the hpcc halo kernel
//	     instead shares one never-written zero body, the contract's one
//	     sanctioned exception, and costs 0 here)
//	1.0  the receiver-side flatten when a multi-segment message is
//	     delivered to the application as one contiguous []byte
//	  ~  simulation bookkeeping (segment descriptors, events, image codec)
//
// The pre-rewrite path measured ~6.6 alloc_B/payload_B for bulk
// transfers and ~10.8 for small messages (extra copies in mpi framing,
// the tcp send queue, the receive queue, and per-segment data copies).
// The gates sit 15% above the post-rewrite figures (2.05 bulk, 3.50
// small), rounded down to two decimals, so any reintroduced full-payload
// copy (+1.0) trips them. The allocation-free guest pump has since
// brought the measured values to ~2.0 and ~3.1.
func TestSendRecvCopyCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	cases := []struct {
		name             string
		rounds, msgBytes int
		maxAllocPerByte  float64
	}{
		{"bulk256KB", 64, 256 << 10, 2.35},
		{"small4KB", 2048, 4 << 10, 4.02},
	}
	// Warm up once so lazy initialisation (codec plans, fabric
	// tables) is not billed to the measured run.
	runStream(t, 2, 4<<10)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			moved := runStream(t, tc.rounds, tc.msgBytes)
			runtime.ReadMemStats(&ms)
			ratio := float64(ms.TotalAlloc-before) / float64(moved)
			t.Logf("%s: %.2f alloc_B/payload_B over %d payload bytes", tc.name, ratio, moved)
			if ratio > tc.maxAllocPerByte {
				t.Fatalf("data plane allocated %.2f B per payload byte, gate is %.2f — a payload copy crept back in",
					ratio, tc.maxAllocPerByte)
			}
		})
	}
}
