package obs

import (
	"bytes"
	"testing"
)

// TestMergeMatchesSerialEmission: recording each partition's events into
// a private child and merging by (TS, child index, child seq) must
// produce the exact bytes of one tracer emitting the same global
// schedule directly — the property that keeps partitioned traces
// byte-identical to the serial engine's.
func TestMergeMatchesSerialEmission(t *testing.T) {
	parent := childTracer()
	c0, c1, c2 := parent.Child(), parent.Child(), parent.Child()

	// Partition schedules, with a timestamp tie at t=10 (c0 before c1 by
	// partition index) and spans that interleave across partitions.
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

	parent.Merge(c0, c1, c2)

	// The same global schedule emitted serially, in (TS, partition) order.
	serial := childTracer()
	serial.Emit(10, EvVMBoot, "p0-n0", "vm0", "boot")
	serial.Emit(10, EvVMBoot, "p1-n0", "vm0", "boot")
	t1 := serial.Begin(15, EvLSCStore, "", "p1", "store")
	t0 := serial.Begin(20, EvLSCEpoch, "", "p0", "epoch")
	serial.Emit(25, EvVMDestroy, "p2-n0", "vm0", "destroy")
	serial.End(30, t1, Str("outcome", "ok"))
	serial.Counter(35, EvSimProbe, "p0-n0", "", "queue", 3)
	serial.End(40, t0, Str("outcome", "commit"))

	a, b := encodeJSONL(t, records(serial)), encodeJSONL(t, records(parent))
	if !bytes.Equal(a, b) {
		t.Fatalf("merged trace differs from serial emission:\nserial:\n%s\nmerged:\n%s", a, b)
	}

	// Seqs dense from 0, span references intact across the interleave.
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
}

// TestMergeDeterministic: merging the same children (same argument
// order) into fresh parents yields identical bytes — the merge depends
// only on (TS, partition index, partition seq), never on anything
// runtime-dependent.
func TestMergeDeterministic(t *testing.T) {
	build := func() []*Tracer {
		c0, c1 := childTracer(), childTracer()
		c0.Emit(5, EvVMBoot, "a", "vm0", "boot")
		s := c1.Begin(5, EvLSCEpoch, "", "t", "epoch")
		c1.End(9, s)
		c0.Emit(9, EvVMDestroy, "a", "vm0", "destroy")
		return []*Tracer{c0, c1}
	}
	var out [2]bytes.Buffer
	for i := range out {
		p := NewTracerWithSink(NewJSONLSink(&out[i], 0))
		p.Merge(build()...)
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatalf("repeated merges diverge:\n%s\nvs\n%s", out[0].String(), out[1].String())
	}
}

// TestMergeNilSafety: nil parents and nil children are inert.
func TestMergeNilSafety(t *testing.T) {
	var nilT *Tracer
	nilT.Merge(childTracer()) // must not panic

	parent := childTracer()
	c := parent.Child()
	c.Emit(1, EvVMBoot, "n0", "vm0", "boot")
	parent.Merge(nil, c, nil)
	if parent.Len() != 1 {
		t.Fatalf("merge with nil children recorded %d, want 1", parent.Len())
	}
}

// TestMergeRejectsStreamingChild: children must come from Child — a
// streaming child has already shipped its records and cannot be merged.
func TestMergeRejectsStreamingChild(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge accepted a child that did not come from Child")
		}
	}()
	var buf bytes.Buffer
	childTracer().Merge(NewTracerWithSink(NewJSONLSink(&buf, 0)))
}
