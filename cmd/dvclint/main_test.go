package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dvc/internal/analysis"
)

func TestListNamesEveryAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("-list printed %d analyzers, want 7:\n%s", len(lines), stdout.String())
	}
	for _, name := range []string{"nowallclock", "noglobalrand", "mapiter", "noconcurrency", "snapshotstate", "noalloc", "fleetscope"} {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Errorf("-list does not name %s:\n%s", name, stdout.String())
		}
	}
}

// TestRemovedOptionsAreUsageErrors: //lint:allow is the one waiver and
// text and SARIF the two outputs, so a baseline file or JSON output is
// a usage error.
func TestRemovedOptionsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-format", "json", "./internal/fleet"},
		{"-baseline", "f", "./internal/fleet"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("dvclint %v: exit %d, want 2", args, code)
		}
	}
}

func TestSARIFOnCleanPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "sarif", "./internal/fleet"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var log struct {
		Version string
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct{ ID string }
				}
			}
			Results []json.RawMessage
		}
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q with %d runs, want 2.1.0 with 1", log.Version, len(log.Runs))
	}
	rules := log.Runs[0].Tool.Driver.Rules
	if want := len(analysis.All()) + 1; len(rules) != want || want != 8 {
		t.Fatalf("%d rules, want 8 (7 analyzers + %s): %v", len(rules), analysis.DirectiveAnalyzer, rules)
	}
	if n := len(log.Runs[0].Results); n != 0 {
		t.Fatalf("%d results on a clean package, want 0", n)
	}
}
