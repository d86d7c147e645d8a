// Package obs is the deterministic observability layer for the DVC
// simulation core: a structured event/span recorder (Tracer) keyed off
// sim.Time, a counter/histogram registry (Registry) with stable sorted
// output, and a record pipeline (Sink) that decides where records go:
// streamed as JSONL through a fixed-size buffer (JSONLSink) or folded
// into per-type counts and span percentiles (SummarySink). A tracer
// keeps no records itself; only a Child buffers its trial's records
// until Merge appends them to the parent. Tracing schedules no kernel
// events: the tracer only records what the instrumented layers emit, so
// a traced run fires exactly the events of an untraced one.
//
// Determinism is part of the contract. Every record is timestamped with
// virtual time supplied by the caller (components already hold the
// kernel), sequence numbers are assigned in emission order, and both
// exporters (JSONL and Chrome/Perfetto trace_events JSON) produce
// byte-identical output for identical runs — the seed-replay tests in
// internal/experiments hash the trace bytes of two runs and require
// equality. The JSONL bytes are the same at any buffer size and any
// trial-pool size, and filtering and sampling (dvctrace -query) are
// keyed on the record itself, never on a random draw. The tracer never
// reads the host clock and never spawns goroutines, so it passes the
// dvclint determinism suite like the rest of the simulation core.
//
// A nil *Tracer is the disabled tracer: every method is nil-receiver
// safe and returns immediately, so instrumented hot paths pay only a
// nil-check when tracing is off (BenchmarkTracerDisabled and the
// //dvc:hotpath annotations guard this — zero allocations on the nil
// path).
package obs

import (
	"strconv"

	"dvc/internal/sim"
)

// EventType names one kind of event in the trace taxonomy. The dotted
// prefix groups events by subsystem and doubles as the Perfetto category.
type EventType string

// The event taxonomy (see DESIGN.md "Observability").
const (
	// VM lifecycle (internal/vm). One Perfetto thread per domain.
	EvVMBoot    EventType = "vm.boot"
	EvVMPause   EventType = "vm.pause"
	EvVMUnpause EventType = "vm.unpause"
	EvVMSave    EventType = "vm.save"
	EvVMRestore EventType = "vm.restore"
	EvVMDestroy EventType = "vm.destroy"

	// LSC coordination (internal/core). Spans are per virtual cluster.
	EvLSCEpoch   EventType = "lsc.epoch"   // span: checkpoint begin → commit/abort
	EvLSCStore   EventType = "lsc.store"   // span: image set → shared storage
	EvLSCRestore EventType = "lsc.restore" // span: staged restore of a generation
	EvLSCCommit  EventType = "lsc.commit"
	EvLSCAbort   EventType = "lsc.abort"

	// Pre-copy live migration (internal/core).
	EvLiveMigrate EventType = "live.migrate" // span: start → switch-over
	EvLiveRound   EventType = "live.round"   // one pre-copy round of one domain

	// Transport (internal/tcp).
	EvTCPRetransmit EventType = "tcp.retransmit"
	EvTCPRTOBackoff EventType = "tcp.rto-backoff"
	EvTCPReset      EventType = "tcp.reset"

	// Interconnect (internal/netsim).
	EvNetDrop EventType = "net.drop"

	// Counter samples. Only PSCALE's per-datacenter xdc.ping counter
	// emits them.
	EvSimProbe EventType = "sim.probe"
)

// Record phases, mirroring the Chrome trace_events phase letter.
const (
	PhaseInstant byte = 'i' // point event
	PhaseBegin   byte = 'B' // span begin
	PhaseEnd     byte = 'E' // span end
	PhaseCounter byte = 'C' // counter sample
)

// KV is one ordered attribute. Attribute order is part of the trace's
// byte identity, so attributes are a slice, never a map.
type KV struct {
	K, V string
}

// Str builds a string attribute.
func Str(k, v string) KV { return KV{k, v} }

// Int builds an integer attribute.
func Int(k string, v int64) KV { return KV{k, strconv.FormatInt(v, 10)} }

// Dur builds a duration attribute in integer nanoseconds of virtual time.
func Dur(k string, t sim.Time) KV { return KV{k, strconv.FormatInt(int64(t), 10)} }

// Record is one trace entry: an instant event, a span boundary, or a
// counter sample. Records are immutable once emitted.
type Record struct {
	Seq  uint64   // emission order, dense from 0
	TS   sim.Time // virtual time supplied by the instrumented component
	Ph   byte     // PhaseInstant | PhaseBegin | PhaseEnd | PhaseCounter
	Type EventType
	Node string // physical node id; "" = site-level
	Dom  string // VM/domain (or VC/job) name; "" = node-level
	Name string // short human label ("pause", "epoch", ...)

	// Span identifies begin/end pairs: a Begin record carries its own
	// Seq here; the matching End record carries the Begin's Seq.
	Span uint64

	// Value is the sample for PhaseCounter records.
	Value float64

	Attrs []KV
}

// SpanID refers to an open span. The zero SpanID is inert: Ending it is
// a no-op, which is what Begin on a disabled tracer returns. SpanIDs are
// slots in a small open-span table, reused after End — hold one only
// between its Begin and its End.
type SpanID uint64

// openSpan is the identity a Begin leaves behind so its End can mirror
// it without the tracer retaining the record stream: memory is bounded
// by concurrently-open spans, not by trace length.
type openSpan struct {
	seq             uint64
	typ             EventType
	node, dom, name string
	live            bool
}

// Tracer records events and spans in emission order and forwards every
// record to its one Sink. It is single-threaded like the simulation
// kernel it observes; a nil *Tracer is the disabled tracer and every
// method no-ops.
type Tracer struct {
	sink Sink
	mem  *memSink   // the buffer of a tracer made by Child; nil otherwise
	next uint64     // next sequence number (== records emitted)
	open []openSpan // open-span table; SpanID = slot+1
	free []int32    // reusable slots
	err  error      // first sink error, sticky

	reg *Registry
}

// NewTracerWithSink creates an enabled tracer forwarding every record to
// sink, with an empty registry. The tracer retains no records: stream
// the trace through a JSONLSink and read it back with DecodeJSONL or
// dvctrace.
func NewTracerWithSink(sink Sink) *Tracer {
	return &Tracer{sink: sink, reg: NewRegistry()}
}

// Registry returns the tracer's metric registry (nil when disabled).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Len reports how many records have been emitted (through any sink).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(t.next)
}

// Flush drains the sink's buffers and reports the first error seen on
// the record path. Call after the run, before closing the underlying
// writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	if err := t.sink.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Emit records an instant event at virtual time ts.
//
//dvc:hotpath
func (t *Tracer) Emit(ts sim.Time, typ EventType, node, dom, name string, kv ...KV) {
	if t == nil {
		return
	}
	t.emitInstant(ts, typ, node, dom, name, kv)
}

// Begin opens a span at ts and returns its id for End. Spans nest
// naturally: inner Begin/End pairs sit inside outer ones on the same
// (node, dom) timeline.
//
//dvc:hotpath
func (t *Tracer) Begin(ts sim.Time, typ EventType, node, dom, name string, kv ...KV) SpanID {
	if t == nil {
		return 0
	}
	return t.begin(ts, typ, node, dom, name, kv)
}

// End closes a span opened by Begin, copying its identity so exporters
// can pair the records without global state.
//
//dvc:hotpath
func (t *Tracer) End(ts sim.Time, id SpanID, kv ...KV) {
	if t == nil || id == 0 {
		return
	}
	t.end(ts, id, kv)
}

// Counter records a counter sample (a Perfetto counter-track point).
//
//dvc:hotpath
func (t *Tracer) Counter(ts sim.Time, typ EventType, node, dom, name string, v float64) {
	if t == nil {
		return
	}
	t.counter(ts, typ, node, dom, name, v)
}

// Inc adds delta to the named registry counter.
//
//dvc:hotpath
func (t *Tracer) Inc(name string, delta float64) {
	if t == nil {
		return
	}
	t.reg.Inc(name, delta)
}

// Observe adds an observation to the named registry histogram.
//
//dvc:hotpath
func (t *Tracer) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.reg.Observe(name, v)
}

// emitInstant is Emit's enabled path.
func (t *Tracer) emitInstant(ts sim.Time, typ EventType, node, dom, name string, kv []KV) {
	t.emit(Record{TS: ts, Ph: PhaseInstant, Type: typ, Node: node, Dom: dom, Name: name, Attrs: cloneKV(kv)})
}

// begin is Begin's enabled path: emit the Begin record (its Span field
// self-references its own seq) and park the span's identity in the
// open-span table for End to mirror.
func (t *Tracer) begin(ts sim.Time, typ EventType, node, dom, name string, kv []KV) SpanID {
	seq := t.emit(Record{TS: ts, Ph: PhaseBegin, Type: typ, Node: node, Dom: dom, Name: name, Span: t.next, Attrs: cloneKV(kv)})
	var slot int32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		t.open = append(t.open, openSpan{})
		slot = int32(len(t.open) - 1)
	}
	t.open[slot] = openSpan{seq: seq, typ: typ, node: node, dom: dom, name: name, live: true}
	return SpanID(slot + 1)
}

// end is End's enabled path: mirror the Begin's identity from the
// open-span table and release the slot. Ids that are out of range or
// already ended are ignored, like the zero SpanID.
func (t *Tracer) end(ts sim.Time, id SpanID, kv []KV) {
	if int(id) > len(t.open) {
		return
	}
	s := &t.open[id-1]
	if !s.live {
		return
	}
	t.emit(Record{TS: ts, Ph: PhaseEnd, Type: s.typ, Node: s.node, Dom: s.dom, Name: s.name, Span: s.seq, Attrs: cloneKV(kv)})
	s.live = false
	t.free = append(t.free, int32(id-1))
}

// counter is Counter's enabled path.
func (t *Tracer) counter(ts sim.Time, typ EventType, node, dom, name string, v float64) {
	t.emit(Record{TS: ts, Ph: PhaseCounter, Type: typ, Node: node, Dom: dom, Name: name, Value: v})
}

// Child returns a fresh, empty tracer for one parallel trial or one
// partition, which buffers its records in memory until Merge. A nil
// (disabled) parent returns a nil child, so untraced runs stay untraced
// all the way down. Children are independent single-threaded tracers;
// after they complete, hand them back to the parent with Merge, one
// child per call in trial (or partition) order.
func (t *Tracer) Child() *Tracer {
	if t == nil {
		return nil
	}
	m := &memSink{}
	c := NewTracerWithSink(m)
	c.mem = m
	return c
}

// Merge appends child's records to t whole, exactly as if every event
// had been emitted directly on t. Parallel trials and partitions rely on
// this: each records into a private child concurrently, and the parent
// merges them back one child per call in index order, reproducing the
// emission order of the serial loop. The records flow straight out
// through the parent's sink, so the parent never holds more than the
// sink's fixed buffer. A partitioned run's trace is therefore
// partition-major; ConvertJSONL orders records by (time, seq) again.
//
// Sequence numbers are re-assigned densely in merge order, and span
// references are remapped through a per-child table (a Begin's new seq
// is recorded when it lands; its End looks the mapping up). The child's
// registry merges into t's: counters add and histograms append, as a
// serial run would. A nil child (from a disabled parent) is ignored;
// Merge on a nil tracer is a no-op. Merge panics on a child that did not
// come from Child.
func (t *Tracer) Merge(child *Tracer) {
	if t == nil || child == nil {
		return
	}
	if child.mem == nil {
		panic("obs: Merge child did not come from Child()")
	}
	recs := child.mem.recs
	remap := make([]uint64, len(recs)) // child Begin seq -> merged seq
	for _, r := range recs {
		switch r.Ph {
		case PhaseBegin:
			remap[r.Seq] = t.next
			r.Span = t.next
		case PhaseEnd:
			r.Span = remap[r.Span]
		}
		r.Seq = t.next
		t.next++
		t.write(&r)
	}
	t.reg.merge(child.reg)
}

// emit assigns the next sequence number and forwards the record.
func (t *Tracer) emit(r Record) uint64 {
	r.Seq = t.next
	t.next++
	t.write(&r)
	return r.Seq
}

// write forwards one finished record to the sink, capturing the first
// error.
func (t *Tracer) write(r *Record) {
	if t.err != nil {
		return
	}
	if err := t.sink.WriteRecord(r); err != nil {
		t.err = err
	}
}

// cloneKV copies the caller's attribute list so the variadic slice never
// escapes at call sites (keeping the disabled path allocation-free). The
// clone is capacity-exact: make+copy allocates len(kv) entries, where
// append-to-nil would round the capacity up to the next size class and
// waste a slot per record on the enabled hot path.
func cloneKV(kv []KV) []KV {
	if len(kv) == 0 {
		return nil
	}
	out := make([]KV, len(kv))
	copy(out, kv)
	return out
}
