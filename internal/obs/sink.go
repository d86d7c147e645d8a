package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"sort"

	"dvc/internal/metrics"
	"dvc/internal/sim"
)

// Sink consumes trace records in final sequence order. The tracer owns
// sequencing and span pairing; a sink only decides where the records go
// (a streaming JSONL writer, a summary) and keeps nothing it does not
// need. Sinks are single-threaded like the tracer that feeds them and
// must be deterministic: the same record stream must produce the same
// observable output, byte for byte where the output is bytes.
//
// Records handed to WriteRecord are owned by the tracer; a sink that
// retains one past the call must copy the Record value (the Attrs slice
// is immutable once emitted, so a shallow copy is sufficient — this is
// what a Child's buffer does).
type Sink interface {
	WriteRecord(r *Record) error
	// Flush forces buffered output down to the underlying writer. The
	// tracer calls it from Tracer.Flush; sinks without buffering return
	// nil.
	Flush() error
}

// memSink buffers every record of a Child tracer until Merge replays
// them into the parent. It is the only sink that holds records.
type memSink struct {
	recs []Record
}

// WriteRecord appends a copy of the record.
func (s *memSink) WriteRecord(r *Record) error {
	s.recs = append(s.recs, *r)
	return nil
}

// Flush is a no-op.
func (s *memSink) Flush() error { return nil }

// JSONLSink streams records as JSONL through a fixed-size buffer: one
// encoded line per record, flushed whenever the buffer fills. It is the
// trace's one encoder, so peak tracer memory is O(bufSize) however long
// the run, and the bytes do not depend on the buffer size or on the
// trial-pool size (TestStreamedTraceMatchesSerial streams a 4-worker run
// through a 4096-byte buffer and compares it with the serial run).
type JSONLSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// DefaultJSONLBuffer is the streaming sink's buffer size when the caller
// passes bufSize <= 0.
const DefaultJSONLBuffer = 256 << 10

// NewJSONLSink creates a streaming JSONL sink over w with a fixed
// bufSize-byte buffer (<= 0 selects DefaultJSONLBuffer).
func NewJSONLSink(w io.Writer, bufSize int) *JSONLSink {
	if bufSize <= 0 {
		bufSize = DefaultJSONLBuffer
	}
	bw := bufio.NewWriterSize(w, bufSize)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// WriteRecord encodes one record as a JSONL line.
func (s *JSONLSink) WriteRecord(r *Record) error {
	return s.enc.Encode(toJSONRecord(r))
}

// Flush drains the buffer to the underlying writer.
func (s *JSONLSink) Flush() error { return s.bw.Flush() }

// FilterConfig selects a deterministic subset of a record stream
// (dvctrace -query applies it to a recorded trace). All predicates are
// pure functions of the record itself — matching never consults a
// clock, a random source, or any out-of-band state — so the same stream
// filters to the same subset on every run.
type FilterConfig struct {
	// Types keeps only records whose event type matches one entry
	// exactly, or whose category (the dotted prefix: "lsc" matches
	// "lsc.epoch") matches one entry. Empty keeps every type.
	Types []EventType
	// Nodes keeps only records on the named physical nodes. Empty keeps
	// every node (including site-level records with Node == "").
	Nodes []string
	// Doms keeps only records on the named VM/domain timelines. Empty
	// keeps every domain.
	Doms []string
	// From/To bound the record's virtual timestamp: From <= TS <= To.
	// A zero To means unbounded.
	From, To sim.Time
	// EveryN keeps one instant/counter record in N, keyed on the
	// record's sequence number (Seq%EveryN == 0) — never on a random
	// draw, so sampling is part of the deterministic contract. Span
	// Begin/End records always pass the sampler: dropping one half of a
	// pair would corrupt span pairing downstream. 0 and 1 keep
	// everything. Seq is the trace's record order, so on a merged
	// (partition-major) trace the sample follows partition order.
	EveryN uint64
}

// Match reports whether the record survives the filter.
func (c *FilterConfig) Match(r *Record) bool {
	if len(c.Types) > 0 {
		ok := false
		cat := categoryOf(r.Type)
		for _, t := range c.Types {
			if r.Type == t || cat == string(t) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(c.Nodes) > 0 && !slices.Contains(c.Nodes, r.Node) {
		return false
	}
	if len(c.Doms) > 0 && !slices.Contains(c.Doms, r.Dom) {
		return false
	}
	if r.TS < c.From {
		return false
	}
	if c.To > 0 && r.TS > c.To {
		return false
	}
	if c.EveryN > 1 && (r.Ph == PhaseInstant || r.Ph == PhaseCounter) && r.Seq%c.EveryN != 0 {
		return false
	}
	return true
}

// Summary accumulates the streaming per-type record counts and
// per-span-name duration statistics of a trace without retaining the
// records themselves: O(event types + span names + open spans) memory
// for arbitrarily long traces. It backs dvctrace's streaming statistics
// and perfbench's trace figures.
type Summary struct {
	total  int
	byType map[EventType]int
	open   map[uint64]sim.Time        // begin seq -> begin TS
	spans  map[string]*metrics.Sample // span name -> durations (seconds)
}

// NewSummary creates an empty trace summary.
func NewSummary() *Summary {
	return &Summary{
		byType: make(map[EventType]int),
		open:   make(map[uint64]sim.Time),
		spans:  make(map[string]*metrics.Sample),
	}
}

// Add folds one record into the summary.
func (s *Summary) Add(r *Record) {
	s.total++
	s.byType[r.Type]++
	switch r.Ph {
	case PhaseBegin:
		s.open[r.Span] = r.TS
	case PhaseEnd:
		if begin, ok := s.open[r.Span]; ok {
			delete(s.open, r.Span)
			name := r.Name
			if name == "" {
				name = string(r.Type)
			}
			sample := s.spans[name]
			if sample == nil {
				sample = &metrics.Sample{}
				s.spans[name] = sample
			}
			sample.AddTime(r.TS - begin)
		}
	}
}

// Total reports how many records were summarised.
func (s *Summary) Total() int { return s.total }

// CountByType returns the record count for one event type.
func (s *Summary) CountByType(t EventType) int { return s.byType[t] }

// Types returns the observed event types in sorted order.
func (s *Summary) Types() []EventType {
	names := make([]string, 0, len(s.byType))
	for t := range s.byType {
		names = append(names, string(t))
	}
	sort.Strings(names)
	out := make([]EventType, len(names))
	for i, n := range names {
		out[i] = EventType(n)
	}
	return out
}

// SpanNames returns the completed span names in sorted order.
func (s *Summary) SpanNames() []string {
	names := make([]string, 0, len(s.spans))
	for n := range s.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Spans returns the duration sample for one completed span name (nil
// when absent).
func (s *Summary) Spans(name string) *metrics.Sample { return s.spans[name] }

// SummarySink folds every record into a Summary as it streams past.
type SummarySink struct {
	Summary
}

// NewSummarySink creates a summarising sink.
func NewSummarySink() *SummarySink {
	return &SummarySink{Summary: *NewSummary()}
}

// WriteRecord folds the record into the summary.
func (s *SummarySink) WriteRecord(r *Record) error {
	s.Add(r)
	return nil
}

// Flush is a no-op.
func (s *SummarySink) Flush() error { return nil }
