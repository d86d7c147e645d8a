package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dvc/internal/sim"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || minOf(s.vals) != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Percentile(0) != 2 || minOf(s.vals) != 2 || s.Max() != 9 {
		t.Fatalf("P0/min/Max = %v/%v/%v", s.Percentile(0), minOf(s.vals), s.Max())
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(50); p != 50 {
		t.Fatalf("P50 = %v", p)
	}
	if p := s.Percentile(99); p != 99 {
		t.Fatalf("P99 = %v", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("P100 = %v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("P0 = %v", p)
	}
}

// TestPercentileEdgeCases pins the nearest-rank behaviour the trace
// summarisers (dvctrace -stats, obs.Registry) depend on: insertion order
// must not matter, duplicates must be handled, a single sample answers
// every percentile, and out-of-range p clamps instead of panicking.
func TestPercentileEdgeCases(t *testing.T) {
	// Unsorted insertion order: Percentile sorts a copy internally.
	var s Sample
	for _, v := range []float64{9, 1, 5, 3, 7} {
		s.Add(v)
	}
	if p := s.Percentile(50); p != 5 {
		t.Fatalf("unsorted P50 = %v, want 5", p)
	}
	if s.Percentile(0) != 1 || minOf(s.vals) != 1 || s.Max() != 9 {
		t.Fatalf("P0/min/Max after unsorted insert = %v/%v/%v", s.Percentile(0), minOf(s.vals), s.Max())
	}
	// Percentile must not mutate the stored order (Mean unchanged etc.).
	if s.Mean() != 5 {
		t.Fatalf("Mean after Percentile = %v", s.Mean())
	}

	// Single element: every percentile is that element.
	var one Sample
	one.Add(42)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := one.Percentile(p); got != 42 {
			t.Fatalf("single-sample P%v = %v, want 42", p, got)
		}
	}

	// Duplicates: nearest-rank lands inside the run of duplicates.
	var dup Sample
	for _, v := range []float64{1, 2, 2, 2, 2, 2, 2, 2, 2, 3} {
		dup.Add(v)
	}
	if p := dup.Percentile(50); p != 2 {
		t.Fatalf("duplicate P50 = %v, want 2", p)
	}
	if p := dup.Percentile(10); p != 1 {
		t.Fatalf("duplicate P10 = %v, want 1", p)
	}
	if p := dup.Percentile(100); p != 3 {
		t.Fatalf("duplicate P100 = %v, want 3", p)
	}

	// Out-of-range p clamps to the extremes rather than panicking.
	var two Sample
	two.Add(10)
	two.Add(20)
	if p := two.Percentile(-5); p != 10 {
		t.Fatalf("P(-5) = %v, want 10", p)
	}
	if p := two.Percentile(250); p != 20 {
		t.Fatalf("P(250) = %v, want 20", p)
	}
}

// TestPercentileMonotonic: for any sample, Percentile must be monotonic
// in p and bounded by the smallest value added and Max — the property every latency table in the
// experiments relies on.
func TestPercentileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev || v < minOf(s.vals) || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// minOf returns the smallest value in vals, or 0 when it is empty. It is
// the test's own reference for the lower bound, independent of Percentile.
func minOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func TestAddTime(t *testing.T) {
	var s Sample
	s.AddTime(1500 * sim.Millisecond)
	if s.Mean() != 1.5 {
		t.Fatalf("AddTime mean = %v", s.Mean())
	}
}

func TestPropertyMinLEMeanLEMax(t *testing.T) {
	f := func(vals []int32) bool {
		var s Sample
		ok := true
		for _, v := range vals {
			s.Add(float64(v))
			ok = ok && !math.IsNaN(s.Mean())
		}
		if s.N() == 0 {
			return true
		}
		return ok && minOf(s.vals) <= s.Mean()+1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Results", "nodes", "fail%", "time")
	tb.Row(8, 0.0, 3150*sim.Millisecond)
	tb.Row(10, 50.0, 4*sim.Second)
	out := tb.String()
	if !strings.Contains(out, "== Results ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "nodes") || !strings.Contains(out, "fail%") {
		t.Fatal("missing headers")
	}
	if !strings.Contains(out, "3.15s") || !strings.Contains(out, "50") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.Row(3.14159)
	tb.Row(12345678.0)
	tb.Row(42.0)
	out := tb.String()
	if !strings.Contains(out, "3.142") {
		t.Fatalf("float not rounded: %s", out)
	}
	if !strings.Contains(out, "42") {
		t.Fatalf("integer-valued float mangled: %s", out)
	}
}

func TestTableJSONAndAccessors(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.Row(1, "x")
	if h := tb.headers; len(h) != 2 || h[0] != "a" {
		t.Fatalf("headers %v", h)
	}
	if rows := tb.rows; len(rows) != 1 || rows[0][0] != "1" || rows[0][1] != "x" {
		t.Fatalf("rows %v", rows)
	}
	b, err := tb.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"title":"T"`) || !strings.Contains(string(b), `"rows":[["1","x"]]`) {
		t.Fatalf("JSON %s", b)
	}
}
