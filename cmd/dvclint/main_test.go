package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestListNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("-list printed %d analyzers, want 6:\n%s", len(lines), stdout.String())
	}
	for _, name := range []string{"nowallclock", "noglobalrand", "mapiter", "noconcurrency", "noalloc", "fleetscope"} {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Errorf("-list does not name %s:\n%s", name, stdout.String())
		}
	}
}

// TestRemovedOptionsAreUsageErrors: //lint:allow is the one waiver and
// text the one output, so a baseline file, an output format or an output
// file is a usage error; the checkpoint state manifest is the image
// codec's tests' to check, so the manifest options are too.
func TestRemovedOptionsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "json", "./internal/fleet"},
		{"-format", "sarif", "./internal/fleet"},
		{"-o", "f", "./internal/fleet"},
		{"-baseline", "f", "./internal/fleet"},
		{"-manifest", "STATE_MANIFEST.txt", "./internal/fleet"},
		{"-write-manifest", "STATE_MANIFEST.txt", "./internal/fleet"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("dvclint %v: exit %d, want 2", args, code)
		}
	}
}

// TestCleanPackagePrintsNothing: a package with no findings exits 0 with
// empty output.
func TestCleanPackagePrintsNothing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./internal/fleet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stdout.Len() != 0 || stderr.Len() != 0 {
		t.Fatalf("clean package printed stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

func sample() []finding {
	// Deliberately out of order on every sort key.
	return []finding{
		{File: "internal/sim/sim.go", Line: 40, Col: 2, Analyzer: "noalloc", Message: "z message"},
		{File: "internal/experiments/experiments.go", Line: 12, Col: 9, Analyzer: "fleetscope", Message: "m1"},
		{File: "internal/sim/sim.go", Line: 40, Col: 2, Analyzer: "mapiter", Message: "a message"},
		{File: "internal/sim/sim.go", Line: 7, Col: 1, Analyzer: "noalloc", Message: "m2"},
		{File: "internal/experiments/experiments.go", Line: 12, Col: 3, Analyzer: "fleetscope", Message: "m3"},
	}
}

// TestSortOrder pins the canonical (file, line, analyzer, col, message)
// finding order.
func TestSortOrder(t *testing.T) {
	fs := sample()
	sortFindings(fs)
	var got []string
	for _, f := range fs {
		got = append(got, strings.Join([]string{f.File, f.Analyzer, f.Message}, "|"))
	}
	want := []string{
		"internal/experiments/experiments.go|fleetscope|m3",
		"internal/experiments/experiments.go|fleetscope|m1",
		"internal/sim/sim.go|noalloc|m2",
		"internal/sim/sim.go|mapiter|a message",
		"internal/sim/sim.go|noalloc|z message",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestDeterministicOutput renders the same findings repeatedly and
// demands byte-identical text across runs.
func TestDeterministicOutput(t *testing.T) {
	render := func() string {
		fs := sample()
		sortFindings(fs)
		var text bytes.Buffer
		if err := writeText(&text, fs); err != nil {
			t.Fatal(err)
		}
		return text.String()
	}
	t1 := render()
	for i := 0; i < 5; i++ {
		if t2 := render(); t1 != t2 {
			t.Fatalf("output not byte-identical across runs (iteration %d)", i)
		}
	}
	if !strings.Contains(t1, "internal/sim/sim.go:40:2: [mapiter] a message\n") {
		t.Fatalf("text format changed:\n%s", t1)
	}
}
