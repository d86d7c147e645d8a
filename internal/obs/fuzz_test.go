package obs

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeJSONL feeds arbitrary bytes to the JSONL trace decoder that
// dvctrace reads untrusted traces through. It must return an error or
// records, never panic. Every decoded record must pass through the
// summary, the query filter and the Perfetto exporter, and re-encoding
// must reach a fixed point after one pass (a non-counter's val and
// malformed UTF-8 are normalised away on the first). The committed
// corpus (testdata/fuzz/FuzzDecodeJSONL) holds a dvcsim-shaped B/E/C/i
// trace, duplicate attr keys, val on a non-counter record and a
// multi-byte phase. Run:
//
//	go test -run '^$' -fuzz FuzzDecodeJSONL -fuzztime 10s ./internal/obs
func FuzzDecodeJSONL(f *testing.F) {
	var seed bytes.Buffer
	tr := NewTracerWithSink(NewJSONLSink(&seed, 0))
	ep := tr.Begin(10, EvLSCEpoch, "", "vc", "epoch", Str("gen", "0"))
	tr.Emit(11, EvVMPause, "n0", "vc-vm00", "pause")
	tr.Counter(12, EvSimProbe, "", "", "sim.queue_depth", 3)
	tr.End(20, ep, Str("outcome", "commit"))
	if err := tr.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())

	filter := FilterConfig{Types: []EventType{"lsc", EvVMPause}, Nodes: []string{"n0"}, To: 15, EveryN: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		sum := NewSummary()
		var recs []Record
		err := DecodeJSONL(bytes.NewReader(data), func(r *Record) error {
			sum.Add(r)
			filter.Match(r)
			recs = append(recs, *r)
			return nil
		})
		if err != nil {
			return
		}
		if err := writePerfetto(io.Discard, recs); err != nil {
			t.Fatalf("exporting decoded records: %v", err)
		}
		once := encodeJSONL(t, recs)
		back, err := readJSONL(once)
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v\n%s", err, once)
		}
		if twice := encodeJSONL(t, back); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n---\n%s", once, twice)
		}
	})
}
