package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"

	"dvc/internal/sim"
)

// Series is a windowed time-series of registry metrics: at each sample
// instant (the kernel probe's virtual-time tick) the registry's counters
// and gauges are snapshotted into one compact row. Columns are metric
// names discovered in deterministic (sorted) order; rows are plain
// float64 slices, so a long run costs a few words per metric per window
// instead of a Record per sample.
//
// The serialized form is columnar JSONL: a header line naming the
// columns, then one JSON array per row — [ts, v0, v1, ...] — padded to
// the final column count. Like the trace itself, the bytes are a pure
// function of the sampled values, so same-seed runs produce identical
// series files.
type Series struct {
	index map[string]int
	cols  []string
	rows  []seriesRow
}

type seriesRow struct {
	ts sim.Time
	// vals is indexed by column; rows sampled before a column existed
	// are shorter than len(cols) and pad with zero at write time.
	vals []float64
}

// NewSeries creates an empty series.
func NewSeries() *Series {
	return &Series{index: make(map[string]int)}
}

// col returns the column index for a metric name, adding the column if
// it is new. Discovery order is the caller's iteration order, which is
// sorted — so column order is deterministic.
func (s *Series) col(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	i := len(s.cols)
	s.cols = append(s.cols, name)
	s.index[name] = i
	return i
}

// Sample snapshots the registry's counters and gauges into one row at
// virtual time ts. Counters are visited first, gauges second, each in
// sorted name order; a name present as both counter and gauge records
// the gauge value (the later write, as Registry.Snapshot would order
// them). Nil receivers and registries are inert.
func (s *Series) Sample(ts sim.Time, r *Registry) {
	if s == nil || r == nil {
		return
	}
	counters := sortedKeys(r.counters)
	gauges := sortedKeys(r.gauges)
	for _, name := range counters {
		s.col(name)
	}
	for _, name := range gauges {
		s.col(name)
	}
	vals := make([]float64, len(s.cols))
	for _, name := range counters {
		vals[s.index[name]] = r.counters[name]
	}
	for _, name := range gauges {
		vals[s.index[name]] = r.gauges[name]
	}
	s.rows = append(s.rows, seriesRow{ts: ts, vals: vals})
}

// Merge appends another series' rows to this one in their recorded
// order, remapping columns by name — the series half of Tracer.Merge.
// Nil receivers and children are inert.
func (s *Series) Merge(c *Series) {
	if s == nil || c == nil {
		return
	}
	for _, name := range c.cols {
		s.col(name)
	}
	for _, row := range c.rows {
		vals := make([]float64, len(s.cols))
		for i, v := range row.vals {
			vals[s.index[c.cols[i]]] = v
		}
		s.rows = append(s.rows, seriesRow{ts: row.ts, vals: vals})
	}
}

// Len reports the number of sampled rows.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// Cols returns the column names in discovery order (without the leading
// implicit "ts" column of the serialized form).
func (s *Series) Cols() []string {
	if s == nil {
		return nil
	}
	return s.cols
}

// Value reads one cell: the named metric's value in row i (0 when the
// column did not exist yet at sample time).
func (s *Series) Value(i int, name string) float64 {
	if s == nil || i < 0 || i >= len(s.rows) {
		return 0
	}
	col, ok := s.index[name]
	if !ok || col >= len(s.rows[i].vals) {
		return 0
	}
	return s.rows[i].vals[col]
}

// TS reads row i's sample timestamp.
func (s *Series) TS(i int) sim.Time {
	if s == nil || i < 0 || i >= len(s.rows) {
		return 0
	}
	return s.rows[i].ts
}

// WriteJSONL writes the columnar form: a header object naming the
// columns, then one array per row. Floats use strconv's shortest
// round-trip formatting ('g', like obs.Float), so the bytes are a pure
// function of the sampled values.
func (s *Series) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	header := struct {
		Cols []string `json:"cols"`
	}{Cols: append([]string{"ts"}, s.cols...)}
	hb, err := json.Marshal(header)
	if err != nil {
		return err
	}
	bw.Write(hb)
	bw.WriteByte('\n')
	var line []byte
	for _, row := range s.rows {
		line = line[:0]
		line = append(line, '[')
		line = strconv.AppendInt(line, int64(row.ts), 10)
		for col := range s.cols {
			line = append(line, ',')
			v := 0.0
			if col < len(row.vals) {
				v = row.vals[col]
			}
			line = strconv.AppendFloat(line, v, 'g', -1, 64)
		}
		line = append(line, ']', '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSeriesJSONL parses a serialized series back into column names and
// rows (ts plus values), for tooling and tests.
func ReadSeriesJSONL(r io.Reader) (cols []string, ts []sim.Time, rows [][]float64, err error) {
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
