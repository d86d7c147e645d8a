package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"dvc/internal/obs"
)

// refSeed is the seed of every shared reference run: the E2 runs here
// and the replay pairs in replay_test.go.
const refSeed = 20070917 // CLUSTER 2007

// e2Run is every byte one traced E2 {Trials 1} run externalizes.
type e2Run struct {
	out      []byte // what Run printed to Out: the table and check lines
	checks   []Check
	trace    []byte // the streamed JSONL trace
	records  int    // records the tracer streamed
	registry string
}

// traceE2 runs the scaled-down E2 at seed with GOMAXPROCS set to procs,
// which sizes the trial pool (1 = the inline serial loop), streaming its
// trace through a JSONLSink with a bufSize-byte buffer (<= 0 = the
// default). At Trials 1, E2's four verified HPCC cells fan out through
// one sweep, so a pool of several workers has real work to reorder.
func traceE2(t *testing.T, seed int64, procs, bufSize int) *e2Run {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var out, trace bytes.Buffer
	tr := obs.NewTracerWithSink(obs.NewJSONLSink(&trace, bufSize))
	res, err := Run("E2", Options{Seed: seed, Trials: 1, Out: &out, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return &e2Run{out: out.Bytes(), checks: res.Checks, trace: trace.Bytes(),
		records: tr.Len(), registry: tr.Registry().Table().String()}
}

// metricsDigest hashes every byte the run serializes: what Run printed,
// then one line per check.
func (r *e2Run) metricsDigest() string {
	h := sha256.New()
	h.Write(r.out)
	for _, c := range r.checks {
		fmt.Fprintf(h, "check %s ok=%v detail=%s\n", c.Name, c.OK, c.Detail)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceDigest hashes the JSONL trace.
func (r *e2Run) traceDigest() string {
	h := sha256.Sum256(r.trace)
	return hex.EncodeToString(h[:])
}

// The E2 determinism tests are the executable form of the kernel's core
// promise ("reproducible bit for bit", internal/sim/sim.go) and of the
// fleet determinism contract, on the paper's headline experiment.
// Between them they read four runs, each made once, by the first test
// that needs it:
//
//	A: serial, at refSeed
//	B: serial, at refSeed again
//	C: 4 workers, at refSeed, through a 4096-byte trace buffer
//	D: serial, at refSeed+1
//
// A must match the pinned digests and hold the event families E2
// exercises. B (same seed, twice) and C (any pool size, any sink buffer
// size) must externalize A's bytes: what Run prints, the checks, the
// trace, the record count and the registry. D must diverge, proving the
// trace observes the run rather than a constant schedule. Under
// `go test -race` the same runs show that no hidden concurrency has
// crept into the replayed path.
var e2Runs = struct{ a, b, c, d sharedE2 }{
	a: sharedE2{seed: refSeed, procs: 1},
	b: sharedE2{seed: refSeed, procs: 1},
	c: sharedE2{seed: refSeed, procs: 4, bufSize: 4096},
	d: sharedE2{seed: refSeed + 1, procs: 1},
}

// sharedE2 is one run of e2Runs, made on first use. The package's tests
// do not run in parallel, so it needs no lock.
type sharedE2 struct {
	seed           int64
	procs, bufSize int
	run            *e2Run
}

func (s *sharedE2) get(t *testing.T) *e2Run {
	t.Helper()
	if s.run == nil {
		s.run = traceE2(t, s.seed, s.procs, s.bufSize)
	}
	return s.run
}

// TestSeedReplayMetricsDigest: A's metrics digest is the pinned one, and
// B, the same seed again, prints, checks and registers exactly what A
// does.
func TestSeedReplayMetricsDigest(t *testing.T) {
	a, b := e2Runs.a.get(t), e2Runs.b.get(t)
	if got := a.metricsDigest(); got != pinnedE2MetricsDigest {
		t.Errorf("E2 metrics digest moved off the pinned baseline:\n  got  %s\n  want %s", got, pinnedE2MetricsDigest)
	}
	sameOutput(t, "same seed again", a, b)
	if a.registry != b.registry {
		t.Errorf("same seed again: E2 registry differs:\n--- first ---\n%s\n--- again ---\n%s", a.registry, b.registry)
	}
}

// TestSeedReplayTraceDigest: A's trace digest is the pinned one, A holds
// the event families E2 exercises and round-trips through DecodeJSONL,
// B streams A's trace byte for byte and as many records, and D, one seed
// on, does not.
func TestSeedReplayTraceDigest(t *testing.T) {
	a, b := e2Runs.a.get(t), e2Runs.b.get(t)
	if got := a.traceDigest(); got != pinnedE2TraceDigest {
		t.Errorf("E2 JSONL trace digest moved off the pinned baseline:\n  got  %s\n  want %s", got, pinnedE2TraceDigest)
	}
	for _, want := range []string{
		`"ev":"lsc.epoch"`,
		`"ev":"lsc.store"`,
		`"ev":"vm.pause"`,
		`"ev":"vm.save"`,
		`"ev":"vm.restore"`,
	} {
		if !bytes.Contains(a.trace, []byte(want)) {
			t.Errorf("trace is missing %s events", want)
		}
	}
	n := 0
	if err := obs.DecodeJSONL(bytes.NewReader(a.trace), func(*obs.Record) error { n++; return nil }); err != nil {
		t.Fatalf("re-reading own trace: %v", err)
	}
	if n == 0 {
		t.Fatal("trace round-tripped to zero records")
	}
	if a.records != b.records {
		t.Errorf("same seed again: streamed %d records, the first run %d", b.records, a.records)
	}
	diffTraces(t, "same seed again", a.trace, b.trace)
	if d := e2Runs.d.get(t); d.traceDigest() == a.traceDigest() {
		t.Fatalf("trace digest for seed %d equals seed %d: trace is not sensitive to the run", refSeed+1, refSeed)
	}
}

// TestParallelMatchesSerial: C, on a 4-worker trial pool, prints and
// checks exactly what the serial A does.
func TestParallelMatchesSerial(t *testing.T) {
	sameOutput(t, "4 workers", e2Runs.a.get(t), e2Runs.c.get(t))
}

// TestStreamedTraceMatchesSerial: C, on 4 workers through a 4096-byte
// sink buffer, streams A's trace byte for byte and as many records.
func TestStreamedTraceMatchesSerial(t *testing.T) {
	a, c := e2Runs.a.get(t), e2Runs.c.get(t)
	if a.records != c.records {
		t.Errorf("4 workers, 4096-byte buffer: streamed %d records, serial %d", c.records, a.records)
	}
	diffTraces(t, "4 workers, 4096-byte buffer", a.trace, c.trace)
}

// TestStreamedRegistryMatchesMemory: C's metrics registry, built from
// the trial Children that Merge streams out, equals A's.
func TestStreamedRegistryMatchesMemory(t *testing.T) {
	a, c := e2Runs.a.get(t), e2Runs.c.get(t)
	if a.registry != c.registry {
		t.Errorf("4 workers: E2 registry differs:\n--- serial ---\n%s\n--- 4 workers ---\n%s", a.registry, c.registry)
	}
}

// sameOutput fails unless b prints and checks exactly what the
// reference run a does.
func sameOutput(t *testing.T, label string, a, b *e2Run) {
	t.Helper()
	if !bytes.Equal(a.out, b.out) {
		t.Errorf("%s: E2 output differs:\n--- reference ---\n%s\n--- %s ---\n%s", label, a.out, label, b.out)
	}
	if !slices.Equal(a.checks, b.checks) {
		t.Errorf("%s: E2 checks differ:\n  reference: %+v\n  %s: %+v", label, a.checks, label, b.checks)
	}
}

// diffTraces fails with the first diverging JSONL line.
func diffTraces(t *testing.T, label string, a, b []byte) {
	t.Helper()
	if bytes.Equal(a, b) {
		return
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			t.Fatalf("%s: JSONL trace diverges at line %d:\n  a: %s\n  b: %s", label, i+1, la[i], lb[i])
		}
	}
	t.Fatalf("%s: JSONL traces differ in length: %d vs %d lines", label, len(la), len(lb))
}
