package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// hostTrace records the benchmark's own host-time spans around its calls
// into each layer. A nil *hostTrace records nothing, so untraced runs pay
// only a nil check.
type hostTrace struct {
	origin time.Time
	spans  []hostSpan
}

type hostSpan struct {
	name       string
	start, dur time.Duration
}

func newHostTrace() *hostTrace { return &hostTrace{origin: time.Now()} }

// begin returns the start instant for a span closed by end.
func (h *hostTrace) begin() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes the span name opened at start.
func (h *hostTrace) end(name string, start time.Time) {
	if h == nil {
		return
	}
	now := time.Now()
	h.spans = append(h.spans, hostSpan{name: name, start: start.Sub(h.origin), dur: now.Sub(start)})
}

// medianMS returns the median duration of the named spans in ms, and 0
// when the workload never records that span.
func (h *hostTrace) medianMS(name string) float64 {
	var xs []float64
	for _, s := range h.spans {
		if s.name == name {
			xs = append(xs, ms(s.dur))
		}
	}
	return median(xs)
}

// writePerfetto writes the spans as Chrome trace-event JSON, which the
// Perfetto UI loads directly.
func (h *hostTrace) writePerfetto(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	evs := make([]event, len(h.spans))
	for i, s := range h.spans {
		evs[i] = event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, PID: 1, TID: 1}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
