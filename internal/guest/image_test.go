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
	// RestoreStack appends connections to its key-ordered table, so the
	// decoder rejects them out of order or repeated.
	a := tcp.ConnSnapshot{Key: tcp.ConnKey{LocalPort: 80, RemoteAddr: "peer-a", RemotePort: 9000}}
	b := tcp.ConnSnapshot{Key: tcp.ConnKey{LocalPort: 80, RemoteAddr: "peer-b", RemotePort: 9000}}
	for _, conns := range [][]tcp.ConnSnapshot{{b, a}, {a, a}} {
		unordered := imageSnap()
		unordered.Stack.Conns = conns
		if img, err = EncodeImagePayload(unordered); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeImagePayload(img); err == nil || !strings.Contains(err.Error(), "key order") {
			t.Fatalf("image with connections %v, %v: %v", conns[0].Key, conns[1].Key, err)
		}
	}
	// Restore indexes a slice by fd, so the fds must be dense from 3:
	// a hostile fd number must not size that slice.
	for _, fd := range []int{1 << 40, 6, 2, -1} {
		sparse := imageSnap()
		sparse.FDs[fd] = sparse.FDs[5]
		delete(sparse.FDs, 5)
		if img, err = EncodeImagePayload(sparse); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeImagePayload(img); err == nil || !strings.Contains(err.Error(), "fds") {
			t.Fatalf("image with fd %d in place of 5: %v", fd, err)
		}
	}
	// A restored process runs its in-flight op and its program
	// unchecked. Each image below is sound but for one field, and would
	// panic after Restore and Thaw: a receive of -1 bytes in the first
	// pump, with "tcp: ring view [0,-1)".
	hostile := []struct {
		name  string
		plant func(*Snapshot)
		want  string
	}{
		{"negative receive", func(s *Snapshot) { s.Procs[0].Cur.(*RecvOp).N = -1 }, "receive of -1 bytes"},
		{"negative send", func(s *Snapshot) { s.Procs[0].Cur = &SendOp{FD: 3, Len: -1} }, "send of -1 bytes"},
		{"nil op", func(s *Snapshot) { s.Procs[0].Cur = (*RecvOp)(nil) }, "nil *guest.RecvOp op"},
		{"nil program", func(s *Snapshot) { s.Procs[0].Prog = (*echoProg)(nil) }, "nil *guest.echoProg program"},
	}
	for _, tc := range hostile {
		snap := echoMidRecvSnapshot(t)
		tc.plant(snap)
		if img, err = EncodeImagePayload(snap); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeImagePayload(img); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// echoMidRecvSnapshot captures an echo guest blocked in a RecvOp
// mid-exchange.
func echoMidRecvSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	r := newRig(tb)
	r.osB.Listen(7000)
	r.osB.Spawn(&echoProg{Port: 7000, Size: 4096})
	r.osA.Spawn(&pingProg{Server: "gb", Port: 7000, Size: 4096, Rounds: 50})
	r.k.RunFor(20 * sim.Millisecond)
	r.freeze(r.osB, r.pB)
	snap := r.osB.Snapshot()
	if _, ok := snap.Procs[0].Cur.(*RecvOp); !ok {
		tb.Fatalf("echo guest is in %T, want a *RecvOp", snap.Procs[0].Cur)
	}
	return snap
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
