package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dvc/internal/obs"
	"dvc/internal/sim"
)

// writeTrace streams a small mixed trace to a JSONL file: 20 net.drop
// instants (seq 0-19), then an lsc.epoch span around three vm.pause
// instants.
func writeTrace(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := obs.NewTracerWithSink(obs.NewJSONLSink(f, 0))
	for i := 0; i < 20; i++ {
		tr.Emit(sim.Time(i), obs.EvNetDrop, "n0", "", "drop", obs.Int("i", int64(i)))
	}
	ep := tr.Begin(20, obs.EvLSCEpoch, "", "vc", "epoch")
	for i := 0; i < 3; i++ {
		tr.Emit(sim.Time(21+i), obs.EvVMPause, "n1", "d0", "pause")
	}
	tr.End(30, ep)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func readRecords(t *testing.T, data []byte) []obs.Record {
	t.Helper()
	var recs []obs.Record
	err := obs.DecodeJSONL(bytes.NewReader(data), func(r *obs.Record) error {
		recs = append(recs, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestQuerySamplesLikeMatch: -query keeps exactly the records
// FilterConfig.Match keeps, and sampling is keyed on sequence numbers,
// so the same query gives the same bytes every time.
func TestQuerySamplesLikeMatch(t *testing.T) {
	path := writeTrace(t, t.TempDir(), "trace.jsonl")
	query := func() []byte {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-query", path, "-type", "net", "-every", "3"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		return stdout.Bytes()
	}
	first := query()
	if second := query(); !bytes.Equal(first, second) {
		t.Fatalf("sampled output not deterministic:\n%s\n---\n%s", first, second)
	}

	got := readRecords(t, first)
	var seqs []uint64
	for _, r := range got {
		seqs = append(seqs, r.Seq)
	}
	if want := []uint64{0, 3, 6, 9, 12, 15, 18}; !slices.Equal(seqs, want) {
		t.Fatalf("query kept seqs %v, want %v", seqs, want)
	}

	in, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := obs.FilterConfig{Types: []obs.EventType{"net"}, EveryN: 3}
	var want []uint64
	for _, r := range readRecords(t, in) {
		if cfg.Match(&r) {
			want = append(want, r.Seq)
		}
	}
	if !slices.Equal(seqs, want) {
		t.Fatalf("query kept seqs %v, Match keeps %v", seqs, want)
	}
}

func TestConvertMatchesExporter(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "trace.jsonl")
	out := filepath.Join(dir, "trace.json")
	var stderr bytes.Buffer
	if code := run([]string{"-convert", path, "-o", out}, &bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	in, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := obs.ConvertJSONL(bytes.NewReader(in), &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("-convert output differs from ConvertJSONL:\n got: %s\nwant: %s", got, want.Bytes())
	}
}

func TestDiffExitStatus(t *testing.T) {
	dir := t.TempDir()
	a := writeTrace(t, dir, "a.jsonl")
	b := writeTrace(t, dir, "b.jsonl")

	var stdout bytes.Buffer
	if code := run([]string{"-diff", a, b}, &stdout, &bytes.Buffer{}); code != 0 {
		t.Fatalf("identical traces: exit %d, want 0:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "traces identical: 25 records") {
		t.Fatalf("identical traces: output %q", stdout.String())
	}

	data, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	changed := bytes.Replace(data, []byte(`"pause"`), []byte(`"pausE"`), 1)
	if err := os.WriteFile(b, changed, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-diff", a, b}, &stdout, &bytes.Buffer{}); code != 1 {
		t.Fatalf("divergent traces: exit %d, want 1:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "traces diverge at record 22") {
		t.Fatalf("divergent traces: output %q", stdout.String())
	}

	if code := run([]string{"-diff", a}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
		t.Fatalf("one file: exit %d, want 2", code)
	}
}

// TestStatsCountsAndSpans: -stats prints the per-type counts and the
// per-span percentile table of one obs.Summary.
func TestStatsCountsAndSpans(t *testing.T) {
	path := writeTrace(t, t.TempDir(), "trace.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-stats", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			rows[f[0]] = f[1:]
		}
	}
	for typ, want := range map[string]string{"net.drop": "20", "lsc.epoch": "2", "vm.pause": "3"} {
		if got := rows[typ]; len(got) != 1 || got[0] != want {
			t.Errorf("%s row %v, want count %s\n%s", typ, got, want, stdout.String())
		}
	}
	if got := rows["epoch"]; len(got) != 5 || got[0] != "1" || got[1] != "10ns" {
		t.Errorf("epoch span row %v, want count 1 and p50 10ns\n%s", got, stdout.String())
	}
}

// TestRemovedModesAreUsageErrors: dvctrace reads event traces only, and
// -stats prints the span table -spans used to.
func TestRemovedModesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-gen", "5"}, {"-spans", "f"}} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("dvctrace %v: exit %d, want 2", args, code)
		}
	}
}
