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

func sectionedSnap() *Snapshot {
	log := make([]LogEntry, 300) // spans two log groups
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
	}
}

func chunksOf(t *testing.T, snap *Snapshot) [][]byte {
	t.Helper()
	img, err := EncodeImagePayload(snap)
	if err != nil {
		t.Fatal(err)
	}
	return img.Chunks()
}

func TestSectionedRoundTrip(t *testing.T) {
	snap := sectionedSnap()
	img, err := EncodeImagePayload(snap)
	if err != nil {
		t.Fatal(err)
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
	img, err := EncodeImagePayload(&Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeImagePayload(img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &Snapshot{}) {
		t.Fatalf("empty snapshot round trip: %+v", got)
	}
}

func TestDecodeRejectsCorruptImage(t *testing.T) {
	if _, err := DecodeImagePayload(payload.Wrap([]byte("short"))); err == nil {
		t.Fatal("short image decoded")
	}
	img, err := EncodeImagePayload(sectionedSnap())
	if err != nil {
		t.Fatal(err)
	}
	flat := img.Flatten()
	flat[len(flat)-1] ^= 1 // break the magic
	if _, err := DecodeImagePayload(payload.Wrap(flat)); err == nil {
		t.Fatal("bad magic decoded")
	}
	flat = img.AppendTo(nil)
	flat[len(flat)-5] ^= 1 // a schema hash from another build
	if _, err := DecodeImagePayload(payload.Wrap(flat)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("image with a foreign schema hash: %v", err)
	}
	// Restore rebuilds the process table in image order, so the decoder
	// rejects processes out of PID order.
	swapped := sectionedSnap()
	swapped.Procs[0], swapped.Procs[1] = swapped.Procs[1], swapped.Procs[0]
	if img, err = EncodeImagePayload(swapped); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeImagePayload(img); err == nil {
		t.Fatal("image with processes out of PID order decoded")
	}
}

// TestEncodeDeterministic pins the replay property: encoding the same
// snapshot twice yields byte-identical chunks — including the FD and accept tables, which live in maps and
// are flattened to key-sorted slices.
func TestEncodeDeterministic(t *testing.T) {
	snap := sectionedSnap()
	a, b := chunksOf(t, snap), chunksOf(t, snap)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("chunk %d differs between identical encodes", i)
		}
	}
}

// TestUnchangedSectionsShareChunks is the section-locality property:
// changing one process's state must change only that process's section
// chunk (plus the trailer chunk when the section's size changes, since
// the trailer's length table records it), leaving every other chunk
// byte-identical.
func TestUnchangedSectionsShareChunks(t *testing.T) {
	base := sectionedSnap()
	chunks0 := chunksOf(t, base)
	changed := func(chunks [][]byte) int {
		t.Helper()
		if len(chunks) != len(chunks0) {
			t.Fatalf("chunk counts differ: %d vs %d", len(chunks0), len(chunks))
		}
		diff := 0
		for i := range chunks0 {
			if !bytes.Equal(chunks0[i], chunks[i]) {
				diff++
			}
		}
		return diff
	}

	// A same-size change (fixed-width fields) leaves the trailer alone.
	same := sectionedSnap()
	same.Procs[1].ExitCode = 7
	same.Procs[1].Exited = true
	if diff := changed(chunksOf(t, same)); diff != 1 {
		t.Fatalf("one same-size process change touched %d of %d chunks, want 1 (proc section)", diff, len(chunks0))
	}
	// A change that grows the section also rewrites the length table.
	mod := sectionedSnap()
	mod.Procs[1].ExitCode = 700
	mod.Procs[1].Exited = true
	if diff := changed(chunksOf(t, mod)); diff != 2 {
		t.Fatalf("one changed process touched %d of %d chunks, want 2 (proc section + trailer)", diff, len(chunks0))
	}

	// Appending to the log re-encodes only the open tail group (plus the
	// meta section that counts entries, plus the trailer): full log
	// groups are immutable.
	grown := sectionedSnap()
	grown.Log = append(grown.Log, LogEntry{Jiffies: 301, Wall: 301, Msg: "more"})
	if diff := changed(chunksOf(t, grown)); diff != 3 {
		t.Fatalf("log append touched %d chunks, want 3 (meta + tail group + trailer)", diff)
	}
}
