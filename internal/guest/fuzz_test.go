package guest

import (
	"testing"

	"dvc/internal/payload"
	"dvc/internal/sim"
)

// midPingPongImage captures a guest paused mid-exchange: processes with
// ops in flight (interface payloads), open connections with queued bytes,
// FD and accept tables.
func midPingPongImage(tb testing.TB) payload.Bytes {
	tb.Helper()
	r := newRig(tb)
	r.osB.Listen(7000)
	r.osB.Spawn(&echoProg{Port: 7000, Size: 4096})
	r.osA.Spawn(&pingProg{Server: "gb", Port: 7000, Size: 4096, Rounds: 50})
	r.osA.Spawn(&computeProg{Dur: 10 * sim.Millisecond, Rounds: 3})
	r.k.RunFor(20 * sim.Millisecond)
	r.freeze(r.osA, r.pA)
	img, err := EncodeImagePayload(r.osA.Snapshot())
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// FuzzDecodeImage feeds arbitrary bytes to the image decoder. It must
// return an error, never panic or allocate beyond a small multiple of
// its input; an image it accepts must have a TCP stack and dense fds
// from 3, re-encode and decode again. The committed corpus
// (testdata/fuzz/FuzzDecodeImage) holds a real image (real-image), its
// first half (truncated-image), a valid trailer behind a process count
// of 2^32-1 (huge-count-trailer), an image whose interface payload
// carries a wrong plan hash (bad-plan-hash), one whose guest has no
// stack (no-stack) and a real image whose one fd is 2^40 (huge-fd). Run:
//
//	go test -run '^$' -fuzz FuzzDecodeImage -fuzztime 15s ./internal/guest
func FuzzDecodeImage(f *testing.F) {
	f.Add(midPingPongImage(f).Flatten())
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeImagePayload(payload.Wrap(data))
		if err != nil {
			return
		}
		if snap.Stack == nil {
			t.Fatal("accepted an image without a TCP stack")
		}
		for fd := range snap.FDs {
			if fd < firstFD || fd >= firstFD+len(snap.FDs) {
				t.Fatalf("accepted fd %d of %d", fd, len(snap.FDs))
			}
		}
		img, err := EncodeImagePayload(snap)
		if err != nil {
			t.Fatalf("re-encoding an accepted image: %v", err)
		}
		if _, err := DecodeImagePayload(img); err != nil {
			t.Fatalf("decoding a re-encoded image: %v", err)
		}
	})
}
