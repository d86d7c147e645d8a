package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenTrace builds a small fixed trace exercising every record phase,
// the site process (empty node), host threads (empty dom), and a
// second-trial timestamp restart that the exporter must re-sort.
func goldenTrace() *Tracer {
	tr := childTracer()
	ep := tr.Begin(0, EvLSCEpoch, "", "t", "epoch", Int("gen", 0))
	tr.Emit(1000, EvVMPause, "nodeB", "vm1", "pause")
	tr.Emit(1500, EvVMPause, "nodeA", "vm0", "pause")
	sv := tr.Begin(2000, EvVMSave, "nodeA", "vm0", "save")
	tr.Counter(2500, EvSimProbe, "", "", "sim.queue_depth", 4)
	tr.End(3000, sv, Int("bytes", 4096))
	tr.Emit(3500, EvTCPRetransmit, "nodeB", "", "rexmit", Str("conn", "c0"))
	tr.End(4000, ep, Str("outcome", "commit"))
	// Second trial: virtual time restarts at zero.
	tr.Emit(500, EvNetDrop, "", "", "drop", Str("reason", "loss"))
	return tr
}

func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writePerfetto(&buf, records(goldenTrace())); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "perfetto_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("perfetto output differs from golden file:\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

func TestPerfettoValidAndSorted(t *testing.T) {
	var buf bytes.Buffer
	if err := writePerfetto(&buf, records(goldenTrace())); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   float64         `json:"ts"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	// Metadata first, then the event stream with monotonically
	// non-decreasing timestamps.
	lastTS := -1.0
	sawMeta, sawEvent := 0, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			sawMeta++
			if sawEvent > 0 {
				t.Fatal("metadata event after the event stream started")
			}
			continue
		}
		sawEvent++
		if ev.TS < lastTS {
			t.Fatalf("event %q has ts %v after %v", ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
		if ev.Pid == 0 || ev.Tid == 0 {
			t.Fatalf("event %q missing pid/tid: %+v", ev.Name, ev)
		}
	}
	// 3 processes (site, nodeA, nodeB) + their threads.
	if sawMeta < 6 {
		t.Fatalf("only %d metadata events", sawMeta)
	}
	if sawEvent != 9 {
		t.Fatalf("got %d stream events, want 9", sawEvent)
	}
}

func TestPerfettoPidTidAssignment(t *testing.T) {
	events := perfettoEvents(records(goldenTrace()))

	// pid 1 must be the synthetic site process, and its tid 1 the host
	// thread; named nodes follow in sorted order.
	names := map[int]string{}
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" {
			names[ev.Pid] = ev.Args.(kvList)[0].V
		}
	}
	if names[1] != "site" || names[2] != "node nodeA" || names[3] != "node nodeB" {
		t.Fatalf("pid assignment = %v", names)
	}
}

func TestCategoryOf(t *testing.T) {
	cases := []struct {
		in   EventType
		want string
	}{
		{EvVMPause, "vm"},
		{EvLSCEpoch, "lsc"},
		{EvTCPRetransmit, "tcp"},
		{EvSimProbe, "sim"},
		{EventType("x"), "x"},
	}
	for _, c := range cases {
		if got := categoryOf(c.in); got != c.want {
			t.Errorf("categoryOf(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
