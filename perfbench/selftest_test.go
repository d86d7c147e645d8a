package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchSpec is the part of ../BENCHMARK.json the self-test checks
// against.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// small shrinks a workload to a few ops per epoch and the fewest epochs
// that still replay an input seed.
func small(w *workload) *workload {
	c := *w
	c.warmup, c.ops, c.minEpochs = 1, 3, w.seeds+1
	return &c
}

// checkMetrics fails unless got holds exactly the declared metrics, each
// with its declared unit and a finite value.
func checkMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, g.Unit, m.Unit)
		}
		if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
			t.Errorf("metric %s: value %v", m.Name, g.Value)
		}
	}
	declared := make(map[string]bool, len(want))
	for _, m := range want {
		declared[m.Name] = true
	}
	for name := range got {
		if !declared[name] {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			res, info := untraced(w, 7, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: %+v, errors %v", res, info["errors"])
			}
			checkMetrics(t, res.Metrics, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			res, info, err := traced(w, 7, 0, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: %+v, errors %v", res, info["errors"])
			}
			checkMetrics(t, res.Metrics, spec.PerLayer)
			var cpu float64
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, ".cpu_pct") || name == rowGCBg {
					cpu += m.Value
				}
			}
			if math.Abs(cpu-100) > 1e-6 {
				t.Errorf("cpu_pct rows sum to %v, want 100", cpu)
			}
			b, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("span file: %d events, err %v", len(doc.TraceEvents), err)
			}
		})
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			_, a := untraced(w, 3, 0)
			_, b := untraced(w, 3, 0)
			_, c := untraced(w, 4, 0)
			if a["digest"] != b["digest"] {
				t.Errorf("same seed, digests %v and %v", a["digest"], b["digest"])
			}
			if a["digest"] == c["digest"] {
				t.Errorf("seeds 3 and 4 share digest %v", a["digest"])
			}
		})
	}
}
