package obs

import (
	"bytes"
	"fmt"
	"testing"

	"dvc/internal/sim"
)

// emitTrial records a representative per-trial event mix (instants, a
// nested span pair, counters, registry updates) onto tr.
func emitTrial(tr *Tracer, trial int) {
	base := sim.Time(trial) * sim.Second
	node := fmt.Sprintf("n%d", trial)
	tr.Emit(base, EvVMBoot, node, "vm0", "boot", Int("trial", int64(trial)))
	outer := tr.Begin(base+1, EvLSCEpoch, "", "t", "epoch", Int("gen", 0))
	inner := tr.Begin(base+2, EvLSCStore, "", "t", "store")
	tr.Counter(base+3, EvSimProbe, node, "", "queue", float64(trial))
	tr.End(base+4, inner, Str("outcome", "ok"))
	tr.End(base+5, outer, Str("outcome", "commit"))
	tr.Inc("trials", 1)
	tr.Gauge("last_trial", float64(trial))
	tr.Observe("skew_ms", float64(trial)*0.5)
}

// TestSpliceMatchesSerialEmission: recording N trials into per-trial
// child tracers and merging them back one child per call in trial order
// (the splice forEachTrial performs) must produce the exact bytes
// (JSONL) and registry snapshot of recording the same trials
// sequentially into one tracer — the property that keeps parallel trial
// execution byte-identical to the serial loop.
func TestSpliceMatchesSerialEmission(t *testing.T) {
	const trials = 5

	serial := childTracer()
	for i := 0; i < trials; i++ {
		emitTrial(serial, i)
	}

	parent := childTracer()
	children := make([]*Tracer, trials)
	for i := 0; i < trials; i++ {
		children[i] = parent.Child()
		emitTrial(children[i], i)
	}
	for _, c := range children {
		parent.Merge(c)
	}

	a, b := encodeJSONL(t, records(serial)), encodeJSONL(t, records(parent))
	if !bytes.Equal(a, b) {
		t.Fatalf("spliced trace differs from serial emission:\nserial:\n%s\nspliced:\n%s", a, b)
	}

	// Seqs must be dense from 0 and span references intact.
	for i, r := range records(parent) {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d (seqs must be re-assigned densely)", i, r.Seq)
		}
		if r.Ph == PhaseBegin && r.Span != r.Seq {
			t.Fatalf("begin record %d has span %d, want self-reference", i, r.Span)
		}
		if r.Ph == PhaseEnd {
			begin := records(parent)[r.Span]
			if begin.Ph != PhaseBegin || begin.Type != r.Type || begin.Name != r.Name {
				t.Fatalf("end record %d references seq %d which is not its begin", i, r.Span)
			}
		}
	}

	// Registry: counters added, gauges last-write-wins, histograms merged.
	sa, sb := serial.Registry().Snapshot(), parent.Registry().Snapshot()
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		t.Fatalf("registry snapshots diverge:\nserial:  %v\nspliced: %v", sa, sb)
	}
	if got := parent.Registry().Counter("trials"); got != trials {
		t.Errorf("counter merge: got %v, want %d", got, trials)
	}
	if got := parent.Registry().gauges["last_trial"]; got != trials-1 {
		t.Errorf("gauge merge is not last-write-wins: got %v", got)
	}
	if got := parent.Registry().hists["skew_ms"].N(); got != trials {
		t.Errorf("histogram merge: got %d observations, want %d", got, trials)
	}
}

// TestSpliceNilSafety: nil parents, nil children and the Child of a nil
// parent must all be inert, so untraced runs never allocate.
func TestSpliceNilSafety(t *testing.T) {
	var nilT *Tracer
	if nilT.Child() != nil {
		t.Fatal("nil.Child() must be nil")
	}
	nilT.Merge(childTracer()) // must not panic

	parent := childTracer()
	c := parent.Child()
	emitTrial(c, 0)
	for _, child := range []*Tracer{nil, c, nil} {
		parent.Merge(child) // nil children skipped
	}
	if parent.Len() != c.Len() {
		t.Fatalf("splice with nil children recorded %d, want %d", parent.Len(), c.Len())
	}
}

// TestSpliceInterleavedWithDirectEmission: records emitted directly on
// the parent before and after a single-child merge keep a single dense
// seq space.
func TestSpliceInterleavedWithDirectEmission(t *testing.T) {
	parent := childTracer()
	parent.Emit(0, EvVMBoot, "n0", "vm0", "boot")
	c := parent.Child()
	emitTrial(c, 1)
	parent.Merge(c)
	parent.Emit(sim.Hour, EvVMDestroy, "n0", "vm0", "destroy")
	for i, r := range records(parent) {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if got := parent.Len(); got != c.Len()+2 {
		t.Fatalf("parent has %d records, want %d", got, c.Len()+2)
	}
}
