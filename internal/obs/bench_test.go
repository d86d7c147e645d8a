package obs

import (
	"io"
	"testing"
	"time"
)

// BenchmarkTracerDisabled measures the instrumented-hot-path cost when
// tracing is off: a nil *Tracer must reduce every call to a nil check
// with zero allocations (the variadic attribute slice must not escape).
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(1, EvTCPRetransmit, "n0", "d0", "rexmit", Str("conn", "c0"), Int("try", 2))
		id := tr.Begin(2, EvLSCEpoch, "", "t", "epoch")
		tr.End(3, id, Str("outcome", "commit"))
		tr.Counter(4, EvSimProbe, "", "", "sim.queue_depth", 1)
		tr.Inc("tcp.retransmits", 1)
		tr.Observe("lat", 5)
	}
}

// BenchmarkTracerEnabled measures the enabled path into a Child's
// buffer: one instant with one attribute per op.
func BenchmarkTracerEnabled(b *testing.B) {
	tr := childTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(1, EvTCPRetransmit, "n0", "d0", "rexmit", Str("conn", "c0"))
	}
}

// BenchmarkTracerEnabledSpan measures a Begin/End pair on the enabled
// path — the span table's allocate/free cycle plus two records.
func BenchmarkTracerEnabledSpan(b *testing.B) {
	tr := childTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := tr.Begin(1, EvLSCEpoch, "", "t", "epoch")
		tr.End(2, id)
	}
}

// BenchmarkTracerStreaming measures the full streaming pipeline: emit →
// JSON encode → fixed buffer → discard. This is the per-record cost a
// large traced run pays instead of O(records) memory.
func BenchmarkTracerStreaming(b *testing.B) {
	tr := NewTracerWithSink(NewJSONLSink(io.Discard, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(1, EvTCPRetransmit, "n0", "d0", "rexmit", Str("conn", "c0"))
	}
	if err := tr.Flush(); err != nil {
		b.Fatal(err)
	}
}

// TestTracerDisabledZeroAlloc pins the nil-path allocation count so a
// regression fails tests, not just a benchmark someone has to read.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(1, EvTCPRetransmit, "n0", "d0", "rexmit", Str("conn", "c0"), Int("try", 2))
		id := tr.Begin(2, EvLSCEpoch, "", "t", "epoch")
		tr.End(3, id, Str("outcome", "commit"))
		tr.Counter(4, EvSimProbe, "", "", "sim.queue_depth", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates: %v allocs/op", allocs)
	}
}

// tracerOverheadCeiling is the enabled-path gate: one instant record
// with one attribute, streamed through a JSONLSink into io.Discard, must
// cost less than this per record. The true cost is a few hundred
// nanoseconds (dominated by encoding/json); the ceiling is generous so
// the gate only fires on structural regressions (a new allocation per
// record, an accidental O(n) scan), not scheduler noise on a busy CI
// runner.
const tracerOverheadCeiling = 20 * time.Microsecond

// TestTracerEnabledOverhead is the ns/record gate for the enabled
// streaming path. Skipped under -race (instrumentation dominates) and
// with -short.
func TestTracerEnabledOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates per-record cost")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in short mode")
	}
	const records = 200000
	tr := NewTracerWithSink(NewJSONLSink(io.Discard, 0))
	start := time.Now()
	for i := 0; i < records; i++ {
		tr.Emit(1, EvTCPRetransmit, "n0", "d0", "rexmit", Str("conn", "c0"))
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	perRecord := time.Since(start) / records
	t.Logf("enabled streaming path: %v/record (ceiling %v)", perRecord, tracerOverheadCeiling)
	if perRecord > tracerOverheadCeiling {
		t.Fatalf("enabled path costs %v/record, ceiling %v", perRecord, tracerOverheadCeiling)
	}
}

// TestTracerMemoryBounded pins the streaming memory contract: a long
// emit stream through a JSONLSink allocates O(buffer), not O(records) —
// the tracer retains no record slice and the span table stays at the
// high-water mark of concurrently-open spans.
func TestTracerMemoryBounded(t *testing.T) {
	tr := NewTracerWithSink(NewJSONLSink(io.Discard, 4096))
	for i := 0; i < 100000; i++ {
		id := tr.Begin(1, EvLSCEpoch, "", "t", "epoch")
		tr.End(2, id)
	}
	if tr.mem != nil {
		t.Fatal("streaming tracer retained records")
	}
	if len(tr.open) != 1 {
		t.Fatalf("span table grew to %d slots for fully-nested spans, want 1", len(tr.open))
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}
