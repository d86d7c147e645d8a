package guest

import (
	"fmt"
	"reflect"
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

func chunkIDsOf(t *testing.T, snap *Snapshot) []payload.ChunkID {
	t.Helper()
	img, err := EncodeImagePayload(snap)
	if err != nil {
		t.Fatal(err)
	}
	return img.AppendChunkIDs(nil)
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

// TestEncodeDeterministic pins the property the content-addressed store
// depends on: encoding the same snapshot twice yields byte-identical
// chunks — including the FD and accept tables, which live in maps and
// would encode in random order if gob serialised them directly.
func TestEncodeDeterministic(t *testing.T) {
	snap := sectionedSnap()
	a, b := chunkIDsOf(t, snap), chunkIDsOf(t, snap)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs between identical encodes", i)
		}
	}
}

// TestUnchangedSectionsShareChunks is the cross-epoch dedup property:
// changing one process's state must change only that process's section
// chunk (plus the trailer chunk, whose section-length table records the
// section's new size), leaving every other chunk — and its ChunkID —
// identical.
func TestUnchangedSectionsShareChunks(t *testing.T) {
	base := sectionedSnap()
	ids0 := chunkIDsOf(t, base)

	mod := sectionedSnap()
	mod.Procs[1].ExitCode = 7
	mod.Procs[1].Exited = true
	ids1 := chunkIDsOf(t, mod)
	if len(ids0) != len(ids1) {
		t.Fatalf("chunk counts differ: %d vs %d", len(ids0), len(ids1))
	}
	diff := 0
	for i := range ids0 {
		if ids0[i] != ids1[i] {
			diff++
		}
	}
	if diff != 2 {
		t.Fatalf("one changed process touched %d of %d chunks, want 2 (proc section + trailer)", diff, len(ids0))
	}

	// Appending to the log re-encodes only the open tail group (plus the
	// meta section that counts entries, plus the trailer): full log
	// groups are immutable.
	grown := sectionedSnap()
	grown.Log = append(grown.Log, LogEntry{Jiffies: 301, Wall: 301, Msg: "more"})
	ids2 := chunkIDsOf(t, grown)
	if len(ids2) != len(ids0) {
		t.Fatalf("chunk counts differ after log append: %d vs %d", len(ids2), len(ids0))
	}
	diff = 0
	for i := range ids0 {
		if ids0[i] != ids2[i] {
			diff++
		}
	}
	if diff != 3 {
		t.Fatalf("log append touched %d chunks, want 3 (meta + tail group + trailer)", diff)
	}
}
