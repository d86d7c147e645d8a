package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sample() []Finding {
	// Deliberately out of order on every sort key.
	return []Finding{
		{File: "internal/sim/sim.go", Line: 40, Col: 2, Analyzer: "noalloc", Message: "z message"},
		{File: "internal/guest/snapshot.go", Line: 12, Col: 9, Analyzer: "snapshotstate", Message: "m1"},
		{File: "internal/sim/sim.go", Line: 40, Col: 2, Analyzer: "mapiter", Message: "a message"},
		{File: "internal/sim/sim.go", Line: 7, Col: 1, Analyzer: "noalloc", Message: "m2"},
		{File: "internal/guest/snapshot.go", Line: 12, Col: 3, Analyzer: "snapshotstate", Message: "m3"},
	}
}

// TestSortOrder pins the canonical (file, line, analyzer, col, message)
// diagnostic order the ISSUE requires.
func TestSortOrder(t *testing.T) {
	fs := sample()
	Sort(fs)
	var got []string
	for _, f := range fs {
		got = append(got, strings.Join([]string{f.File, f.Analyzer, f.Message}, "|"))
	}
	want := []string{
		"internal/guest/snapshot.go|snapshotstate|m3",
		"internal/guest/snapshot.go|snapshotstate|m1",
		"internal/sim/sim.go|noalloc|m2",
		"internal/sim/sim.go|mapiter|a message",
		"internal/sim/sim.go|noalloc|z message",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s\nfull: %v", i, got[i], want[i], got)
		}
	}
}

// TestDeterministicOutput renders the same findings repeatedly through
// every writer and demands byte-identical output across runs.
func TestDeterministicOutput(t *testing.T) {
	rules := []RuleDoc{{Name: "noalloc", Doc: "no allocs"}, {Name: "mapiter"}, {Name: "snapshotstate", Doc: "closure"}}
	render := func() (string, string) {
		fs := sample()
		Sort(fs)
		var text, sarif bytes.Buffer
		if err := WriteText(&text, fs); err != nil {
			t.Fatal(err)
		}
		if err := WriteSARIF(&sarif, fs, rules); err != nil {
			t.Fatal(err)
		}
		return text.String(), sarif.String()
	}
	t1, s1 := render()
	for i := 0; i < 5; i++ {
		t2, s2 := render()
		if t1 != t2 || s1 != s2 {
			t.Fatalf("output not byte-identical across runs (iteration %d)", i)
		}
	}
	if !strings.Contains(t1, "internal/sim/sim.go:40:2: [mapiter] a message") {
		t.Fatalf("text format changed:\n%s", t1)
	}
}

// TestSARIFShape checks the fields SARIF viewers rely on.
func TestSARIFShape(t *testing.T) {
	fs := sample()
	Sort(fs)
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, fs, []RuleDoc{{Name: "noalloc", Doc: "d"}}); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log["version"] != "2.1.0" {
		t.Fatalf("version = %v, want 2.1.0", log["version"])
	}
	runs := log["runs"].([]any)
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "dvclint" {
		t.Fatalf("driver name = %v", driver["name"])
	}
	results := run["results"].([]any)
	if len(results) != len(fs) {
		t.Fatalf("results = %d, want %d", len(results), len(fs))
	}
	first := results[0].(map[string]any)
	if first["ruleId"] != "snapshotstate" || first["level"] != "error" {
		t.Fatalf("first result = %v", first)
	}
	loc := first["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	if loc["artifactLocation"].(map[string]any)["uri"] != "internal/guest/snapshot.go" {
		t.Fatalf("uri = %v", loc)
	}
	if loc["region"].(map[string]any)["startLine"].(float64) != 12 {
		t.Fatalf("startLine = %v", loc)
	}
}
