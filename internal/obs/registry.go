package obs

import (
	"encoding/json"
	"sort"

	"dvc/internal/metrics"
)

// Registry is a counter/histogram registry with stable sorted output.
// Like the Tracer it is single-threaded and deterministic: the snapshot
// order is the sorted metric name, never map order.
type Registry struct {
	counters map[string]float64
	hists    map[string]*metrics.Sample
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]float64),
		hists:    make(map[string]*metrics.Sample),
	}
}

// Inc adds delta to a counter (creating it at zero).
func (r *Registry) Inc(name string, delta float64) {
	if r == nil {
		return
	}
	r.counters[name] += delta
}

// Observe appends an observation to a histogram.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	s := r.hists[name]
	if s == nil {
		s = &metrics.Sample{}
		r.hists[name] = s
	}
	s.Add(v)
}

// Counter reads a counter's current value (0 when absent).
func (r *Registry) Counter(name string) float64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

// merge folds another registry into this one, reproducing what a serial
// run would have accumulated: counters add and histogram observations
// append in their recorded order. Iteration is over sorted keys — the
// values are order-independent, but the determinism lint (mapiter)
// applies here like everywhere else.
func (r *Registry) merge(c *Registry) {
	if r == nil || c == nil {
		return
	}
	for _, name := range sortedKeys(c.counters) {
		r.counters[name] += c.counters[name]
	}
	for _, name := range sortedKeys(c.hists) {
		s := r.hists[name]
		if s == nil {
			s = &metrics.Sample{}
			r.hists[name] = s
		}
		s.Merge(c.hists[name])
	}
}

// Point is one metric in a registry snapshot. Histograms carry the
// span-summary statistics (count/mean/percentiles) the LSC epoch
// analysis uses; counters carry Value.
type Point struct {
	Kind  string  `json:"kind"` // "counter" | "histogram"
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot returns every metric sorted by (name, kind) — stable across
// runs by construction.
func (r *Registry) Snapshot() []Point {
	if r == nil {
		return nil
	}
	pts := make([]Point, 0, len(r.counters)+len(r.hists))
	for _, name := range sortedKeys(r.counters) {
		pts = append(pts, Point{Kind: "counter", Name: name, Value: r.counters[name]})
	}
	for _, name := range sortedKeys(r.hists) {
		s := r.hists[name]
		pts = append(pts, Point{
			Kind: "histogram", Name: name,
			Count: s.N(), Mean: s.Mean(), P50: s.Percentile(50), P99: s.Percentile(99), Max: s.Max(),
		})
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Name != pts[j].Name {
			return pts[i].Name < pts[j].Name
		}
		return pts[i].Kind < pts[j].Kind
	})
	return pts
}

// Table renders the snapshot as a metrics table, for merging into the
// experiment harness output.
func (r *Registry) Table() *metrics.Table {
	tbl := metrics.NewTable("observability registry", "kind", "name", "value", "count", "mean", "p50", "p99", "max")
	for _, p := range r.Snapshot() {
		if p.Kind == "histogram" {
			tbl.Row(p.Kind, p.Name, "-", p.Count, p.Mean, p.P50, p.P99, p.Max)
		} else {
			tbl.Row(p.Kind, p.Name, p.Value, "-", "-", "-", "-", "-")
		}
	}
	return tbl
}

// MarshalJSON renders the snapshot as a sorted JSON array.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// sortedKeys returns a map's keys in sorted order (the collect-and-sort
// idiom from the determinism invariants).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
