package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestConvertJSONLMatchesGolden pins the offline conversion pipeline:
// encode the golden trace as JSONL (what a JSONLSink run would leave on
// disk), convert it with ConvertJSONL, and require byte-equality with
// both the exporter run over the records themselves and the committed
// golden file. This is the contract that lets dvcsim never hold records
// for Perfetto — dvctrace -convert reproduces the exact same bytes after
// the fact.
func TestConvertJSONLMatchesGolden(t *testing.T) {
	recs := records(goldenTrace())

	var inProcess bytes.Buffer
	if err := writePerfetto(&inProcess, recs); err != nil {
		t.Fatal(err)
	}

	var converted bytes.Buffer
	if err := ConvertJSONL(bytes.NewReader(encodeJSONL(t, recs)), &converted); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(converted.Bytes(), inProcess.Bytes()) {
		t.Fatalf("offline conversion differs from in-process exporter:\n got: %s\nwant: %s",
			converted.Bytes(), inProcess.Bytes())
	}

	want, err := os.ReadFile(filepath.Join("testdata", "perfetto_golden.json"))
	if err != nil {
		t.Fatalf("%v (run TestPerfettoGolden with -update-golden first)", err)
	}
	if !bytes.Equal(converted.Bytes(), want) {
		t.Fatalf("offline conversion differs from golden file:\n got: %s\nwant: %s", converted.Bytes(), want)
	}
}

// TestConvertJSONLStreamedInput runs the conversion over JSONL produced
// by a streaming tracer — the actual production path.
func TestConvertJSONLStreamedInput(t *testing.T) {
	var jsonl bytes.Buffer
	st := NewTracerWithSink(NewJSONLSink(&jsonl, 64))
	ep := st.Begin(0, EvLSCEpoch, "", "t", "epoch", Int("gen", 0))
	st.Emit(1000, EvVMPause, "nodeB", "vm1", "pause")
	st.End(4000, ep, Str("outcome", "commit"))
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	mem := childTracer()
	ep2 := mem.Begin(0, EvLSCEpoch, "", "t", "epoch", Int("gen", 0))
	mem.Emit(1000, EvVMPause, "nodeB", "vm1", "pause")
	mem.End(4000, ep2, Str("outcome", "commit"))
	var want bytes.Buffer
	if err := writePerfetto(&want, records(mem)); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := ConvertJSONL(bytes.NewReader(jsonl.Bytes()), &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("conversion of streamed JSONL differs:\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
	}
}
