// Package metrics provides the statistics and table rendering used by the
// experiment harness to print paper-style result rows.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"dvc/internal/sim"
)

// Sample accumulates float64 observations.
type Sample struct {
	vals []float64
}

// Add appends an observation.
func (s *Sample) Add(v float64) { s.vals = append(s.vals, v) }

// AddTime appends a duration observation in seconds.
func (s *Sample) AddTime(t sim.Time) { s.Add(t.Seconds()) }

// Merge appends every observation of o in o's recording order, so merging
// per-trial samples in trial order reproduces the value sequence a serial
// loop would have accumulated. A nil o is a no-op.
func (s *Sample) Merge(o *Sample) {
	if o != nil {
		s.vals = append(s.vals, o.vals...)
	}
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0-100) by nearest-rank.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.vals...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Table renders fixed-width result tables.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmtFloat(v)
		case sim.Time:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func fmtFloat(v float64) string {
	a := math.Abs(v)
	switch {
	case v == math.Trunc(v) && a < 1e7:
		return fmt.Sprintf("%.0f", v)
	case a >= 1000 || (a < 0.01 && a > 0):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// MarshalJSON renders the table as {title, headers, rows}.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}{t.Title, t.headers, t.rows})
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
