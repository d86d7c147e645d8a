package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvc"
	"dvc/internal/obs"
)

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, id := range dvc.ExperimentIDs() {
		if !strings.Contains(stdout.String(), "  "+id+" ") {
			t.Errorf("-list output misses %s:\n%s", id, stdout.String())
		}
	}
}

func TestReportWritesEveryArtifact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "report")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "E3", "-report", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, stderr.String(), stdout.String())
	}
	for _, name := range []string{"config.json", "results.json", "registry.json", "trace.jsonl", "summary.json", "series.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s: %v", name, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var results []struct{ ID string }
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatalf("results.json: %v", err)
	}
	if len(results) != 1 || results[0].ID != "E3" {
		t.Fatalf("results.json = %+v, want one E3 result", results)
	}
}

func TestNegativeTrialsExit2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "E3", "-trials", "-1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestUnknownFlagsExit2: the trial pool follows GOMAXPROCS and PSCALE
// always runs one worker per datacenter, so neither pool size is a flag;
// setting one is a usage error, reported before anything runs.
func TestUnknownFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "E1", "-partitions", "2"},
		{"-exp", "E1", "-parallel", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran anyway:\n%s", args, stdout.String())
		}
	}
}

// TestScaleModeRejectsExperimentFlags: scale mode runs no experiment, so
// each experiment flag set beside -dc is a usage error, reported before
// anything runs.
func TestScaleModeRejectsExperimentFlags(t *testing.T) {
	scale := []string{"-dc", "1", "-cluster", "1", "-host", "4", "-vm", "2"}
	for _, extra := range [][]string{
		{"-exp", "E1"},
		{"-trials", "3"},
		{"-full"},
		{"-json"},
		{"-report", t.TempDir()},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(append([]string{}, scale...), extra...), &stdout, &stderr)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", extra, code)
		}
		if !strings.Contains(stderr.String(), extra[0]) {
			t.Errorf("%v: stderr %q does not name the flag", extra, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: scale mode ran anyway:\n%s", extra, stdout.String())
		}
	}
}

// TestFailedScaleRunKeepsTrace: a scale run that cannot place its job
// exits non-zero and still leaves the records it made (the kernel
// probe's, at least) in its -trace file.
func TestFailedScaleRunKeepsTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dc", "1", "-cluster", "1", "-host", "2", "-vm", "4", "-trace", path},
		&stdout, &stderr)
	if code == 0 {
		t.Fatalf("a 4-VM job on 2 hosts succeeded:\n%s", stdout.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no trace: %v (stderr %q)", err, stderr.String())
	}
	defer f.Close()
	n := 0
	if err := obs.DecodeJSONL(f, func(*obs.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("failed run left an empty trace (stderr %q)", stderr.String())
	}
}
