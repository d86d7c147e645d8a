package obs

import (
	"bytes"
	"errors"
	"testing"

	"dvc/internal/sim"
)

// emitFixture replays a fixed little event stream onto tr: instants on
// two nodes, a nested span pair, a counter, and a registry touch.
func emitFixture(tr *Tracer) {
	tr.Emit(10, EvVMBoot, "n0", "d0", "boot", Str("os", "native"))
	ep := tr.Begin(20, EvLSCEpoch, "", "vc", "epoch", Int("gen", 0))
	sv := tr.Begin(30, EvVMSave, "n0", "d0", "save")
	tr.Counter(35, EvSimProbe, "", "", "sim.queue_depth", 2)
	tr.End(40, sv, Int("bytes", 4096))
	tr.Emit(45, EvTCPRetransmit, "n1", "", "rexmit", Str("conn", "c0"))
	tr.End(50, ep, Str("outcome", "commit"))
	tr.Inc("lsc.commits", 1)
}

// TestJSONLSinkMatchesMemoryExport: a stream through a tiny buffer
// encodes the same bytes as a Child's buffered records.
func TestJSONLSinkMatchesMemoryExport(t *testing.T) {
	mem := childTracer()
	emitFixture(mem)
	want := encodeJSONL(t, records(mem))

	// A tiny 64-byte buffer forces many mid-run flushes; bytes must not
	// change.
	var got bytes.Buffer
	st := NewTracerWithSink(NewJSONLSink(&got, 64))
	emitFixture(st)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streaming sink bytes differ from memory export:\n got: %s\nwant: %s", got.Bytes(), want)
	}
	if st.mem != nil {
		t.Fatal("streaming tracer retained records")
	}
	if st.Len() != mem.Len() {
		t.Fatalf("streaming Len=%d, memory Len=%d", st.Len(), mem.Len())
	}
}

// failWriter fails after n successful writes.
type failWriter struct {
	n   int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	w.n--
	return len(p), nil
}

func TestTracerSinkErrorIsSticky(t *testing.T) {
	wantErr := errors.New("disk full")
	// Buffer of 1 byte → every record forces a write through.
	st := NewTracerWithSink(NewJSONLSink(&failWriter{n: 0, err: wantErr}, 1))
	emitFixture(st)
	if err := st.Flush(); !errors.Is(err, wantErr) {
		t.Fatalf("Flush = %v, want %v", err, wantErr)
	}
	if err := st.err; !errors.Is(err, wantErr) {
		t.Fatalf("Err = %v, want %v", err, wantErr)
	}
}

func TestFilterConfigMatch(t *testing.T) {
	mk := func(seq uint64, ph byte, typ EventType, node, dom string, ts sim.Time) *Record {
		return &Record{Seq: seq, TS: ts, Ph: ph, Type: typ, Node: node, Dom: dom}
	}
	cases := []struct {
		name string
		cfg  FilterConfig
		rec  *Record
		want bool
	}{
		{"empty keeps all", FilterConfig{}, mk(0, PhaseInstant, EvNetDrop, "", "", 5), true},
		{"exact type", FilterConfig{Types: []EventType{EvVMPause}}, mk(0, PhaseInstant, EvVMPause, "", "", 0), true},
		{"category match", FilterConfig{Types: []EventType{"lsc"}}, mk(0, PhaseInstant, EvLSCCommit, "", "", 0), true},
		{"type miss", FilterConfig{Types: []EventType{EvVMPause}}, mk(0, PhaseInstant, EvNetDrop, "", "", 0), false},
		{"node match", FilterConfig{Nodes: []string{"n1"}}, mk(0, PhaseInstant, EvNetDrop, "n1", "", 0), true},
		{"node miss", FilterConfig{Nodes: []string{"n1"}}, mk(0, PhaseInstant, EvNetDrop, "n2", "", 0), false},
		{"dom match", FilterConfig{Doms: []string{"d0"}}, mk(0, PhaseInstant, EvVMPause, "n", "d0", 0), true},
		{"dom miss", FilterConfig{Doms: []string{"d0"}}, mk(0, PhaseInstant, EvVMPause, "n", "d1", 0), false},
		{"before From", FilterConfig{From: 10}, mk(0, PhaseInstant, EvNetDrop, "", "", 9), false},
		{"at From", FilterConfig{From: 10}, mk(0, PhaseInstant, EvNetDrop, "", "", 10), true},
		{"after To", FilterConfig{To: 10}, mk(0, PhaseInstant, EvNetDrop, "", "", 11), false},
		{"zero To unbounded", FilterConfig{}, mk(0, PhaseInstant, EvNetDrop, "", "", 1<<40), true},
		{"everyN keeps seq%N==0", FilterConfig{EveryN: 4}, mk(8, PhaseInstant, EvNetDrop, "", "", 0), true},
		{"everyN drops others", FilterConfig{EveryN: 4}, mk(9, PhaseInstant, EvNetDrop, "", "", 0), false},
		{"everyN drops counters", FilterConfig{EveryN: 4}, mk(9, PhaseCounter, EvSimProbe, "", "", 0), false},
		{"everyN passes Begin", FilterConfig{EveryN: 4}, mk(9, PhaseBegin, EvLSCEpoch, "", "", 0), true},
		{"everyN passes End", FilterConfig{EveryN: 4}, mk(9, PhaseEnd, EvLSCEpoch, "", "", 0), true},
	}
	for _, c := range cases {
		if got := c.cfg.Match(c.rec); got != c.want {
			t.Errorf("%s: Match = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSummaryStreaming(t *testing.T) {
	ss := NewSummarySink()
	tr := NewTracerWithSink(ss)
	emitFixture(tr)
	if ss.Total() != 7 {
		t.Fatalf("Total = %d, want 7", ss.Total())
	}
	if ss.CountByType(EvLSCEpoch) != 2 || ss.CountByType(EvNetDrop) != 0 {
		t.Fatalf("counts: epoch=%d drop=%d", ss.CountByType(EvLSCEpoch), ss.CountByType(EvNetDrop))
	}
	if got := ss.SpanNames(); len(got) != 2 || got[0] != "epoch" || got[1] != "save" {
		t.Fatalf("SpanNames = %v", got)
	}
	d := ss.Spans("epoch")
	if d == nil || d.N() != 1 || d.Max() != sim.Time(30).Seconds() {
		t.Fatalf("epoch durations = %+v", d)
	}
}

func TestSpanSlotReuse(t *testing.T) {
	tr := childTracer()
	a := tr.Begin(1, EvLSCEpoch, "", "t", "epoch")
	tr.End(2, a)
	b := tr.Begin(3, EvLSCStore, "", "t", "store")
	if a != b {
		t.Fatalf("freed slot not reused: first=%d second=%d", a, b)
	}
	// Double-End is inert; the reused slot's new identity is what Ends.
	tr.End(4, a)
	tr.End(5, a) // already closed
	recs := records(tr)
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if recs[3].Type != EvLSCStore || recs[3].Span != recs[2].Seq {
		t.Fatalf("reused-slot End = %+v", recs[3])
	}
}

func TestSpliceIntoStreamingParent(t *testing.T) {
	// Serial reference: everything emitted on one streaming tracer.
	var want bytes.Buffer
	serial := NewTracerWithSink(NewJSONLSink(&want, 0))
	emitFixture(serial)
	emitFixture(serial)
	if err := serial.Flush(); err != nil {
		t.Fatal(err)
	}

	// Streaming parent; two children merged one at a time, in order.
	var got bytes.Buffer
	parent := NewTracerWithSink(NewJSONLSink(&got, 128))
	c1, c2 := parent.Child(), parent.Child()
	emitFixture(c1)
	emitFixture(c2)
	parent.Merge(c1)
	parent.Merge(c2)
	if err := parent.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("spliced streaming output differs from serial:\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
	}
	if parent.Registry().Counter("lsc.commits") != 2 {
		t.Fatalf("registry merge lost counts: %v", parent.Registry().Counter("lsc.commits"))
	}
}

func TestSpliceRejectsStreamingChild(t *testing.T) {
	parent := childTracer()
	bad := NewTracerWithSink(NewJSONLSink(&bytes.Buffer{}, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("Merge accepted a non-memory child")
		}
	}()
	parent.Merge(bad)
}

func TestDecodeJSONLStreams(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracerWithSink(NewJSONLSink(&buf, 0))
	emitFixture(tr)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	err := DecodeJSONL(bytes.NewReader(buf.Bytes()), func(rec *Record) error {
		seqs = append(seqs, rec.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != tr.Len() {
		t.Fatalf("decoded %d records, want %d", len(seqs), tr.Len())
	}
	// Early-exit error propagates.
	stop := errors.New("stop")
	n := 0
	err = DecodeJSONL(bytes.NewReader(buf.Bytes()), func(rec *Record) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 2 {
		t.Fatalf("early exit: err=%v n=%d", err, n)
	}
}
