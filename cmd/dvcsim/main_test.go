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
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, " "), "config.json registry.json results.json trace.jsonl"; got != want {
		t.Errorf("report artifacts = %s, want %s", got, want)
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
// always runs one worker per datacenter, so neither pool size is a flag.
// -report is the one way to record a run and -exp SCALE the one way to
// run generated topologies, so -trace and -dc are not flags either.
// Setting any of them is a usage error, reported before anything runs.
func TestUnknownFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "E1", "-partitions", "2"},
		{"-exp", "E1", "-parallel", "2"},
		{"-exp", "E1", "-trace", filepath.Join(t.TempDir(), "t.jsonl")},
		{"-dc", "1"},
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

// TestFailedScaleRunKeepsTrace: a recorded SCALE run that cannot write
// its report (results.json is already a directory) exits non-zero and
// still leaves the records it made in trace.jsonl.
func TestFailedScaleRunKeepsTrace(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "results.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "SCALE", "-report", dir}, &stdout, &stderr); code == 0 {
		t.Fatalf("report written over a directory:\n%s", stdout.String())
	}
	f, err := os.Open(filepath.Join(dir, "trace.jsonl"))
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
