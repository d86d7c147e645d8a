package obs

import (
	"bytes"
	"testing"

	"dvc/internal/sim"
)

func TestSeriesSampleAndReadBack(t *testing.T) {
	r := NewRegistry()
	s := NewSeries()

	r.Inc("a.count", 1)
	r.Set("z.gauge", 10)
	s.Sample(100, r)

	r.Inc("a.count", 2)
	r.Inc("b.count", 5) // new column appears mid-series
	r.Set("z.gauge", 11)
	s.Sample(200, r)

	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Counters first, gauges second, each sorted; b.count discovered later
	// so it sits after the first sample's columns.
	if got := s.Cols(); len(got) != 3 || got[0] != "a.count" || got[1] != "z.gauge" || got[2] != "b.count" {
		t.Fatalf("Cols = %v", got)
	}
	if s.Value(0, "a.count") != 1 || s.Value(0, "z.gauge") != 10 || s.Value(0, "b.count") != 0 {
		t.Fatalf("row 0 = %v %v %v", s.Value(0, "a.count"), s.Value(0, "z.gauge"), s.Value(0, "b.count"))
	}
	if s.Value(1, "a.count") != 3 || s.Value(1, "b.count") != 5 || s.TS(1) != 200 {
		t.Fatalf("row 1 wrong")
	}

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	cols, ts, rows, err := ReadSeriesJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 4 || cols[0] != "ts" || cols[3] != "b.count" {
		t.Fatalf("read cols = %v", cols)
	}
	if len(ts) != 2 || ts[0] != 100 || ts[1] != 200 {
		t.Fatalf("read ts = %v", ts)
	}
	// The short first row pads with zero at write time.
	if len(rows[0]) != 3 || rows[0][2] != 0 || rows[1][2] != 5 {
		t.Fatalf("read rows = %v", rows)
	}
}

func TestSeriesBytesStable(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		s := NewSeries()
		for i := 1; i <= 4; i++ {
			r.Inc("events", float64(i))
			r.Set("depth", float64(10-i)/3)
			s.Sample(sim.Time(i*100), r)
		}
		var buf bytes.Buffer
		if err := s.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("series bytes not stable:\n%s\n---\n%s", a, b)
	}
}

func TestSeriesMerge(t *testing.T) {
	parent := NewSeries()
	r1 := NewRegistry()
	r1.Inc("x", 1)
	parent.Sample(10, r1)

	child := NewSeries()
	r2 := NewRegistry()
	r2.Inc("y", 7) // column unknown to the parent
	r2.Inc("x", 2)
	child.Sample(20, r2)

	parent.Merge(child)
	if parent.Len() != 2 {
		t.Fatalf("merged Len = %d, want 2", parent.Len())
	}
	if parent.Value(1, "x") != 2 || parent.Value(1, "y") != 7 || parent.TS(1) != 20 {
		t.Fatalf("merged row = x=%v y=%v ts=%v", parent.Value(1, "x"), parent.Value(1, "y"), parent.TS(1))
	}
	if parent.Value(0, "y") != 0 {
		t.Fatal("pre-merge row leaked a child column value")
	}

	// Nil-safety both directions.
	var nilSeries *Series
	nilSeries.Merge(child)
	parent.Merge(nil)
	nilSeries.Sample(1, r1)
	if nilSeries.Len() != 0 || nilSeries.Cols() != nil || nilSeries.TS(0) != 0 || nilSeries.Value(0, "x") != 0 {
		t.Fatal("nil series not inert")
	}
}

func TestTracerSeriesViaProbe(t *testing.T) {
	k := sim.NewKernel(1)
	tr := childTracer()
	p := StartKernelProbe(k, tr, 100)
	for i := 0; i < 5; i++ {
		k.At(sim.Time(i*150), func() {})
	}
	k.RunUntil(500)
	p.Stop()

	s := tr.Series()
	if s == nil || s.Len() == 0 {
		t.Fatal("probe sampled no series rows")
	}
	found := false
	for _, c := range s.Cols() {
		if c == "sim.queue_depth" {
			found = true
		}
	}
	if !found {
		t.Fatalf("series cols = %v, want sim.queue_depth", s.Cols())
	}
	var nilTr *Tracer
	if nilTr.Series() != nil {
		t.Fatal("nil tracer has a series")
	}
	nilTr.SampleSeries(1) // must not panic
}
