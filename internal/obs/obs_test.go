package obs

import (
	"bytes"
	"strings"
	"testing"

	"dvc/internal/sim"
)

// childTracer returns a tracer that buffers its records, as a trial's
// Child does, so a test can read them back.
func childTracer() *Tracer { return NewTracerWithSink(nil).Child() }

// records returns the records a Child-made tracer buffered.
func records(tr *Tracer) []Record { return tr.mem.recs }

// encodeJSONL encodes records through the streaming sink, the trace's
// one encoder.
func encodeJSONL(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf, 0)
	for i := range recs {
		if err := sink.WriteRecord(&recs[i]); err != nil {
			t.Fatalf("encoding a record: %v", err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readJSONL decodes a whole JSONL trace into a record slice.
func readJSONL(data []byte) ([]Record, error) {
	var out []Record
	err := DecodeJSONL(bytes.NewReader(data), func(rec *Record) error {
		out = append(out, *rec)
		return nil
	})
	return out, err
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, EvVMPause, "n0", "d0", "pause")
	id := tr.Begin(2, EvLSCEpoch, "", "t", "epoch")
	if id != 0 {
		t.Fatalf("nil Begin returned %d, want 0", id)
	}
	tr.End(3, id)
	tr.Counter(4, EvSimProbe, "", "", "x", 1)
	tr.Inc("c", 1)
	tr.Gauge("g", 1)
	tr.Observe("h", 1)
	if tr.Len() != 0 || tr.Registry() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

func TestSpanPairing(t *testing.T) {
	tr := childTracer()
	tr.Emit(10, EvVMBoot, "n0", "d0", "boot", Str("os", "native"))
	outer := tr.Begin(20, EvLSCEpoch, "", "vc", "epoch", Int("gen", 0))
	inner := tr.Begin(30, EvLSCStore, "", "vc", "store")
	tr.End(40, inner, Int("bytes", 1024))
	tr.End(50, outer)

	recs := records(tr)
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	b, e := recs[1], recs[4]
	if b.Ph != PhaseBegin || e.Ph != PhaseEnd {
		t.Fatalf("outer phases %c/%c", b.Ph, e.Ph)
	}
	if e.Span != b.Seq || e.Type != b.Type || e.Node != b.Node || e.Dom != b.Dom || e.Name != b.Name {
		t.Fatalf("end record does not mirror begin: %+v vs %+v", e, b)
	}
	ib, ie := recs[2], recs[3]
	if ie.Span != ib.Seq {
		t.Fatalf("inner span mismatch: end.Span=%d begin.Seq=%d", ie.Span, ib.Seq)
	}
	if len(ie.Attrs) != 1 || ie.Attrs[0].K != "bytes" || ie.Attrs[0].V != "1024" {
		t.Fatalf("end attrs = %+v", ie.Attrs)
	}
}

func TestEndGuards(t *testing.T) {
	tr := childTracer()
	tr.End(5, 0)  // zero id
	tr.End(5, 99) // out of range
	tr.Emit(1, EvVMBoot, "n", "d", "boot")
	tr.End(5, SpanID(1)) // record 0 is not a Begin
	if tr.Len() != 1 {
		t.Fatalf("guarded End emitted records: len=%d", tr.Len())
	}
}

func TestAttrHelpers(t *testing.T) {
	cases := []struct {
		kv   KV
		k, v string
	}{
		{Str("a", "b"), "a", "b"},
		{Int("i", -7), "i", "-7"},
		{Dur("d", sim.Time(1500)), "d", "1500"},
	}
	for _, c := range cases {
		if c.kv.K != c.k || c.kv.V != c.v {
			t.Errorf("got %q=%q, want %q=%q", c.kv.K, c.kv.V, c.k, c.v)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := childTracer()
	tr.Emit(100, EvTCPRetransmit, "n1", "d2", "rexmit", Str("conn", "c0"), Int("try", 2))
	id := tr.Begin(200, EvLSCEpoch, "", "t", "epoch")
	tr.Counter(250, EvSimProbe, "", "", "sim.queue_depth", 3.5)
	tr.End(300, id, Str("outcome", "commit"))

	want := records(tr)
	got, err := readJSONL(encodeJSONL(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Seq != w.Seq || g.TS != w.TS || g.Ph != w.Ph || g.Type != w.Type ||
			g.Node != w.Node || g.Dom != w.Dom || g.Name != w.Name || g.Span != w.Span || g.Value != w.Value {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		if len(g.Attrs) != len(w.Attrs) {
			t.Fatalf("record %d attrs length %d, want %d", i, len(g.Attrs), len(w.Attrs))
		}
		for j := range w.Attrs {
			if g.Attrs[j] != w.Attrs[j] {
				t.Fatalf("record %d attr %d = %+v, want %+v", i, j, g.Attrs[j], w.Attrs[j])
			}
		}
	}
}

func TestJSONLByteStability(t *testing.T) {
	build := func() []byte {
		var buf bytes.Buffer
		tr := NewTracerWithSink(NewJSONLSink(&buf, 0))
		tr.Emit(1, EvVMPause, "n0", "dom-a", "pause", Str("why", "lsc"))
		id := tr.Begin(2, EvLSCEpoch, "", "t", "epoch", Int("gen", 3))
		tr.End(9, id)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical traces serialized differently:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(string(a), `"attrs":{"why":"lsc"}`) {
		t.Fatalf("attrs not serialized in order: %s", a)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Inc("z.count", 2)
	r.Inc("a.count", 1)
	r.Set("m.gauge", 4)
	r.Observe("h.lat", 10)
	r.Observe("h.lat", 20)
	r.Observe("h.lat", 30)

	pts := r.Snapshot()
	if len(pts) != 4 {
		t.Fatalf("snapshot has %d points, want 4", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Name > pts[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", pts[i-1].Name, pts[i].Name)
		}
	}
	if pts[0].Name != "a.count" || pts[0].Value != 1 {
		t.Fatalf("pts[0] = %+v", pts[0])
	}
	var h Point
	for _, p := range pts {
		if p.Kind == "histogram" {
			h = p
		}
	}
	if h.Name != "h.lat" || h.Count != 3 || h.Mean != 20 || h.Max != 30 {
		t.Fatalf("histogram point = %+v", h)
	}
	if r.Counter("z.count") != 2 || r.gauges["m.gauge"] != 4 || r.hists["h.lat"] == nil {
		t.Fatal("registry readbacks wrong")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Inc("c", 1)
	r.Set("g", 1)
	r.Observe("h", 1)
	if r.Counter("c") != 0 || r.Snapshot() != nil {
		t.Fatal("nil registry not inert")
	}
}

func TestKernelProbeDeterministic(t *testing.T) {
	run := func() []byte {
		k := sim.NewKernel(1)
		var buf bytes.Buffer
		tr := NewTracerWithSink(NewJSONLSink(&buf, 0))
		StartKernelProbe(k, tr, 100)
		for i := 0; i < 5; i++ {
			k.At(sim.Time(i*150), func() {})
		}
		k.RunUntil(500)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("probe trace not deterministic:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(string(a), "sim.queue_depth") {
		t.Fatalf("probe emitted no queue-depth samples: %s", a)
	}
}

func TestKernelProbeDisabled(t *testing.T) {
	k := sim.NewKernel(1)
	if p := StartKernelProbe(k, nil, 100); p != nil {
		t.Fatal("nil tracer produced a live probe")
	}
	if p := StartKernelProbe(k, childTracer(), 0); p != nil {
		t.Fatal("non-positive interval produced a live probe")
	}
	if k.Pending() != 0 {
		t.Fatalf("disabled probe scheduled events: pending=%d", k.Pending())
	}
}
