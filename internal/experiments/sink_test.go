package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// These tests pin the streaming half of the replay contract: a traced
// experiment writing through the streaming JSONL sink must externalize
// byte-identical output to the memory-backed tracer, at any pool size,
// while retaining no records — peak tracer memory is the sink's
// fixed buffer plus the child being merged, not the full trace.

// TestStreamingSinkMatchesMemorySink: the memory tracer's WriteJSONL and
// the streaming sink's output must agree byte for byte on a full E2 run,
// serial and parallel alike.
func TestStreamingSinkMatchesMemorySink(t *testing.T) {
	mem := e2Serial(t)
	if len(mem.trace) == 0 {
		t.Fatal("memory reference trace is empty")
	}

	for _, c := range []struct {
		procs int
		run   *e2Run
	}{{1, e2Streamed(t, 1, 4096)}, {4, e2StreamedParallel(t)}} {
		procs, tr := c.procs, c.run.tr
		diffTraces(t, fmt.Sprintf("GOMAXPROCS=%d: memory vs streamed", procs), mem.trace, c.run.trace)
		// The bounded-memory half of the contract: the streaming tracer
		// must not have retained the record stream.
		if tr.Records() != nil {
			t.Fatalf("GOMAXPROCS=%d: streaming tracer retained %d records", procs, len(tr.Records()))
		}
		if tr.Len() != mem.tr.Len() {
			t.Fatalf("GOMAXPROCS=%d: streamed %d records, memory run recorded %d", procs, tr.Len(), mem.tr.Len())
		}
	}
}

// TestStreamedRegistryMatchesMemory: the registry and series travel the
// same merge path as records; streaming must not change them.
func TestStreamedRegistryMatchesMemory(t *testing.T) {
	memTr, st := e2Serial(t).tr, e2StreamedParallel(t).tr
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
