package guest

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dvc/internal/payload"
	"dvc/internal/sim"
	"dvc/internal/tcp"
)

func imageSnap() *Snapshot {
	log := make([]LogEntry, 300)
	for i := range log {
		log[i] = LogEntry{Jiffies: sim.Time(i), Wall: sim.Time(i), Msg: fmt.Sprintf("entry %d", i)}
	}
	return &Snapshot{
		Procs: []ProcSnapshot{
			{PID: 1, TimerLeft: -1},
			{PID: 2, TimerLeft: -1},
			{PID: 3, Exited: true, ExitCode: 0, TimerLeft: -1},
		},
		NextPID: 4,
		FDs: map[int]tcp.ConnKey{
			3: {LocalPort: 9000, RemoteAddr: "peer-a", RemotePort: 80},
			4: {LocalPort: 9001, RemoteAddr: "peer-b", RemotePort: 80},
			5: {LocalPort: 9002, RemoteAddr: "peer-c", RemotePort: 80},
		},
		NextFD: 6,
		Accepts: map[uint16][]tcp.ConnKey{
			80: {{LocalPort: 80, RemoteAddr: "client", RemotePort: 5000}},
			81: nil,
		},
		Listens:   []uint16{80, 81},
		Log:       log,
		Jiffies:   5 * sim.Second,
		WD:        WatchdogConfig{Interval: sim.Second, Tolerance: 2 * sim.Second},
		WDLeft:    500 * sim.Millisecond,
		WDTimeout: 1,
		CPUFactor: 1.03,
		Stack:     &tcp.StackSnapshot{},
	}
}

func TestSectionedRoundTrip(t *testing.T) {
	snap := imageSnap()
	img, err := EncodeImagePayload(snap)
	if err != nil {
		t.Fatal(err)
	}
	if n := img.NumChunks(); n != 1 {
		t.Fatalf("image is a rope of %d chunks, want one buffer", n)
	}
	got, err := DecodeImagePayload(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, snap)
	}
}

func TestSectionedRoundTripEmpty(t *testing.T) {
	empty := &Snapshot{Stack: &tcp.StackSnapshot{}}
	img, err := EncodeImagePayload(empty)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImagePayload(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, empty) {
		t.Fatalf("empty snapshot round trip: %+v", got)
	}
}

func TestDecodeRejectsCorruptImage(t *testing.T) {
	if _, err := DecodeImagePayload(payload.Wrap([]byte("short"))); err == nil {
		t.Fatal("short image decoded")
	}
	img, err := EncodeImagePayload(imageSnap())
	if err != nil {
		t.Fatal(err)
	}
	// Flatten of a one-chunk rope is the image itself: corrupt a copy.
	flat := img.AppendTo(nil)
	flat[len(flat)-1] ^= 1 // break the magic
	if _, err := DecodeImagePayload(payload.Wrap(flat)); err == nil {
		t.Fatal("bad magic decoded")
	}
	flat = img.AppendTo(nil)
	flat[len(flat)-5] ^= 1 // a schema hash from another build
	if _, err := DecodeImagePayload(payload.Wrap(flat)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("image with a foreign schema hash: %v", err)
	}
	// Restore rebuilds the stack first: an image without one is corrupt.
	stackless := imageSnap()
	stackless.Stack = nil
	if img, err = EncodeImagePayload(stackless); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeImagePayload(img); err == nil || !strings.Contains(err.Error(), "stack") {
		t.Fatalf("image without a TCP stack: %v", err)
	}
	// Restore rebuilds the process table in image order, so the decoder
	// rejects processes out of PID order.
	swapped := imageSnap()
	swapped.Procs[0], swapped.Procs[1] = swapped.Procs[1], swapped.Procs[0]
	if img, err = EncodeImagePayload(swapped); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeImagePayload(img); err == nil {
		t.Fatal("image with processes out of PID order decoded")
	}
}

// TestEncodeDeterministic pins the replay property: encoding the same
// snapshot twice yields identical bytes — including the FD and accept
// tables, maps the codec writes in key order.
func TestEncodeDeterministic(t *testing.T) {
	encode := func() []byte {
		t.Helper()
		img, err := EncodeImagePayload(imageSnap())
		if err != nil {
			t.Fatal(err)
		}
		return img.Flatten()
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("identical snapshots encoded to different bytes")
	}
}
