package obs

import (
	"bytes"
	"testing"
)

// emitPartitions records three partitions' schedules, with a timestamp
// tie at t=10 and spans that overlap across partitions in virtual time,
// onto one tracer each.
func emitPartitions(c0, c1, c2 *Tracer) {
	c0.Emit(10, EvVMBoot, "p0-n0", "vm0", "boot")
	s0 := c0.Begin(20, EvLSCEpoch, "", "p0", "epoch")
	c0.Counter(35, EvSimProbe, "p0-n0", "", "queue", 3)
	c0.End(40, s0, Str("outcome", "commit"))
	c0.Inc("events", 4)

	c1.Emit(10, EvVMBoot, "p1-n0", "vm0", "boot")
	s1 := c1.Begin(15, EvLSCStore, "", "p1", "store")
	c1.End(30, s1, Str("outcome", "ok"))
	c1.Inc("events", 3)

	c2.Emit(25, EvVMDestroy, "p2-n0", "vm0", "destroy")
	c2.Inc("events", 1)
}

// TestMergeMatchesSerialEmission: recording each partition into a
// private child and merging the children one per call, in partition
// order, appends each child whole. The result must equal one tracer
// emitting the partitions' schedules one after another: seqs dense,
// spans remapped, registries summed. Converted to Perfetto, it must
// equal the same schedule emitted in global time order, the one view
// that reads the trace in time order.
func TestMergeMatchesSerialEmission(t *testing.T) {
	parent := childTracer()
	c0, c1, c2 := parent.Child(), parent.Child(), parent.Child()
	emitPartitions(c0, c1, c2)
	for _, c := range []*Tracer{c0, c1, c2} {
		parent.Merge(c)
	}

	// The same schedules emitted partition after partition.
	serial := childTracer()
	emitPartitions(serial, serial, serial)
	a, b := encodeJSONL(t, records(serial)), encodeJSONL(t, records(parent))
	if !bytes.Equal(a, b) {
		t.Fatalf("merged trace differs from serial emission:\nserial:\n%s\nmerged:\n%s", a, b)
	}

	// Seqs dense from 0, span references intact.
	recs := records(parent)
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d (seqs must be re-assigned densely)", i, r.Seq)
		}
		if r.Ph == PhaseBegin && r.Span != r.Seq {
			t.Fatalf("begin record %d has span %d, want self-reference", i, r.Span)
		}
		if r.Ph == PhaseEnd {
			begin := recs[r.Span]
			if begin.Ph != PhaseBegin || begin.Type != r.Type || begin.Name != r.Name {
				t.Fatalf("end record %d references seq %d which is not its begin", i, r.Span)
			}
		}
	}

	// Registry counters add across partitions.
	if got := parent.Registry().Counter("events"); got != 8 {
		t.Errorf("counter merge: got %v, want 8", got)
	}

	// The global schedule in (time, partition) order.
	global := childTracer()
	global.Emit(10, EvVMBoot, "p0-n0", "vm0", "boot")
	global.Emit(10, EvVMBoot, "p1-n0", "vm0", "boot")
	g1 := global.Begin(15, EvLSCStore, "", "p1", "store")
	g0 := global.Begin(20, EvLSCEpoch, "", "p0", "epoch")
	global.Emit(25, EvVMDestroy, "p2-n0", "vm0", "destroy")
	global.End(30, g1, Str("outcome", "ok"))
	global.Counter(35, EvSimProbe, "p0-n0", "", "queue", 3)
	global.End(40, g0, Str("outcome", "commit"))
	var want, got bytes.Buffer
	if err := writePerfetto(&want, records(global)); err != nil {
		t.Fatal(err)
	}
	if err := writePerfetto(&got, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("Perfetto of the merged trace differs from the time-ordered schedule's:\nwant: %s\n got: %s", want.Bytes(), got.Bytes())
	}
}

// TestMergeDeterministic: merging the same children in the same order
// into fresh parents yields identical bytes.
func TestMergeDeterministic(t *testing.T) {
	var out [2]bytes.Buffer
	for i := range out {
		p := NewTracerWithSink(NewJSONLSink(&out[i], 0))
		c0, c1, c2 := p.Child(), p.Child(), p.Child()
		emitPartitions(c0, c1, c2)
		for _, c := range []*Tracer{c0, c1, c2} {
			p.Merge(c)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("repeated merges diverge:\n%s\nvs\n%s", out[0].String(), out[1].String())
	}
}
