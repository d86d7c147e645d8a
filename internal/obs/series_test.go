package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
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

	if len(s.rows) != 2 {
		t.Fatalf("Len = %d, want 2", len(s.rows))
	}
	// Counters first, gauges second, each sorted; b.count discovered later
	// so it sits after the first sample's columns.
	if got := s.cols; len(got) != 3 || got[0] != "a.count" || got[1] != "z.gauge" || got[2] != "b.count" {
		t.Fatalf("Cols = %v", got)
	}
	if value(s, 0, "a.count") != 1 || value(s, 0, "z.gauge") != 10 || value(s, 0, "b.count") != 0 {
		t.Fatalf("row 0 = %v %v %v", value(s, 0, "a.count"), value(s, 0, "z.gauge"), value(s, 0, "b.count"))
	}
	if value(s, 1, "a.count") != 3 || value(s, 1, "b.count") != 5 || s.rows[1].ts != 200 {
		t.Fatalf("row 1 wrong")
	}

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	cols, ts, rows, err := readSeriesJSONL(bytes.NewReader(buf.Bytes()))
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
	if len(parent.rows) != 2 {
		t.Fatalf("merged Len = %d, want 2", len(parent.rows))
	}
	if value(parent, 1, "x") != 2 || value(parent, 1, "y") != 7 || parent.rows[1].ts != 20 {
		t.Fatalf("merged row = x=%v y=%v ts=%v", value(parent, 1, "x"), value(parent, 1, "y"), parent.rows[1].ts)
	}
	if value(parent, 0, "y") != 0 {
		t.Fatal("pre-merge row leaked a child column value")
	}

	// Nil-safety both directions.
	var nilSeries *Series
	nilSeries.Merge(child)
	parent.Merge(nil)
	nilSeries.Sample(1, r1)
}

func TestTracerSeriesViaProbe(t *testing.T) {
	k := sim.NewKernel(1)
	tr := childTracer()
	StartKernelProbe(k, tr, 100)
	for i := 0; i < 5; i++ {
		k.At(sim.Time(i*150), func() {})
	}
	k.RunUntil(500)

	s := tr.Series()
	if s == nil || len(s.rows) == 0 {
		t.Fatal("probe sampled no series rows")
	}
	found := false
	for _, c := range s.cols {
		if c == "sim.queue_depth" {
			found = true
		}
	}
	if !found {
		t.Fatalf("series cols = %v, want sim.queue_depth", s.cols)
	}
	var nilTr *Tracer
	if nilTr.Series() != nil {
		t.Fatal("nil tracer has a series")
	}
	nilTr.SampleSeries(1) // must not panic
}

// value reads one cell: the named metric's value in row i (0 when the
// column did not exist yet at sample time).
func value(s *Series, i int, name string) float64 {
	if i < 0 || i >= len(s.rows) {
		return 0
	}
	col, ok := s.index[name]
	if !ok || col >= len(s.rows[i].vals) {
		return 0
	}
	return s.rows[i].vals[col]
}

// readSeriesJSONL parses a serialized series back into column names and
// rows (ts plus values).
func readSeriesJSONL(r io.Reader) (cols []string, ts []sim.Time, rows [][]float64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	first := true
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if first {
			first = false
			var header struct {
				Cols []string `json:"cols"`
			}
			if err := json.Unmarshal(raw, &header); err != nil {
				return nil, nil, nil, err
			}
			cols = header.Cols
			continue
		}
		var vals []float64
		if err := json.Unmarshal(raw, &vals); err != nil {
			return nil, nil, nil, err
		}
		if len(vals) == 0 {
			continue
		}
		ts = append(ts, sim.Time(vals[0]))
		rows = append(rows, vals[1:])
	}
	return cols, ts, rows, sc.Err()
}
