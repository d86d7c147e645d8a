package experiments

import (
	"bytes"
	"testing"

	"dvc/internal/obs"
)

// These tests pin the streaming half of the replay contract: a traced
// experiment writing through the streaming JSONL sink must externalize
// byte-identical output to the memory-backed tracer, at any Parallel
// value, while retaining no records — peak tracer memory is the sink's
// fixed buffer plus the child being merged, not the full trace.

// e2Streamed runs the scaled-down traced E2 with a streaming JSONL sink
// (deliberately tiny buffer to force many mid-run flushes) and returns
// the streamed bytes plus the tracer for state assertions.
func e2Streamed(t *testing.T, seed int64, parallel, bufSize int) ([]byte, *obs.Tracer) {
	t.Helper()
	var out bytes.Buffer
	tr := obs.NewTracerWithSink(obs.NewJSONLSink(&out, bufSize))
	var tbl bytes.Buffer
	if _, err := Run("E2", Options{Seed: seed, Trials: 2, Parallel: parallel, Out: &tbl, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), tr
}

// TestStreamingSinkMatchesMemorySink: the memory tracer's WriteJSONL and
// the streaming sink's output must agree byte for byte on a full E2 run,
// serial and parallel alike.
func TestStreamingSinkMatchesMemorySink(t *testing.T) {
	const seed = 20070917

	// Memory reference (serial).
	memTr := obs.NewTracer()
	var tbl bytes.Buffer
	if _, err := Run("E2", Options{Seed: seed, Trials: 2, Parallel: 1, Out: &tbl, Tracer: memTr}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := memTr.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if len(want.Bytes()) == 0 {
		t.Fatal("memory reference trace is empty")
	}

	for _, parallel := range []int{1, 4} {
		got, tr := e2Streamed(t, seed, parallel, 4096)
		if !bytes.Equal(got, want.Bytes()) {
			ls, lp := bytes.Split(want.Bytes(), []byte("\n")), bytes.Split(got, []byte("\n"))
			for i := 0; i < len(ls) && i < len(lp); i++ {
				if !bytes.Equal(ls[i], lp[i]) {
					t.Fatalf("parallel=%d: streamed trace diverges at line %d:\n  memory:   %s\n  streamed: %s",
						parallel, i+1, ls[i], lp[i])
				}
			}
			t.Fatalf("parallel=%d: traces differ in length: memory %d lines, streamed %d", parallel, len(ls), len(lp))
		}
		// The bounded-memory half of the contract: the streaming tracer
		// must not have retained the record stream.
		if tr.Records() != nil {
			t.Fatalf("parallel=%d: streaming tracer retained %d records", parallel, len(tr.Records()))
		}
		if tr.Len() != memTr.Len() {
			t.Fatalf("parallel=%d: streamed %d records, memory run recorded %d", parallel, tr.Len(), memTr.Len())
		}
	}
}

// TestStreamedRegistryMatchesMemory: the registry and series travel the
// same merge path as records; streaming must not change them.
func TestStreamedRegistryMatchesMemory(t *testing.T) {
	const seed = 20070917
	memTr := obs.NewTracer()
	var tbl bytes.Buffer
	if _, err := Run("E2", Options{Seed: seed, Trials: 2, Parallel: 1, Out: &tbl, Tracer: memTr}); err != nil {
		t.Fatal(err)
	}
	_, st := e2Streamed(t, seed, 4, 4096)
	if got, want := st.Registry().Table().String(), memTr.Registry().Table().String(); got != want {
		t.Fatalf("registry differs:\n--- streamed ---\n%s\n--- memory ---\n%s", got, want)
	}
	var a, b bytes.Buffer
	if err := st.Series().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := memTr.Series().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("series differs:\n--- streamed ---\n%s\n--- memory ---\n%s", a.Bytes(), b.Bytes())
	}
	if st.Series().Len() == 0 {
		t.Fatal("probe sampled no series rows during E2")
	}
}
