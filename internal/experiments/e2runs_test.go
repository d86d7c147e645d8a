package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"dvc/internal/obs"
)

// The equivalence tests (parallel pool, streaming sink) all compare
// against one serial reference run of the scaled-down traced E2, and two
// of them against one streamed run on a 4-worker pool.
// Every run is deterministic, so each shared run is made once per test
// binary and memoized.

// refSeed is the seed of every shared reference run: the equivalence
// runs here and the replay pairs in replay_test.go.
const refSeed = 20070917 // CLUSTER 2007

// e2Run is one traced E2 {Trials 2} run: its tracer plus every byte it
// externalizes.
type e2Run struct {
	tr       *obs.Tracer
	tables   []byte
	checks   []Check
	trace    []byte // the serialized JSONL trace
	registry string
}

// e2Traced runs the scaled-down E2 into tr with GOMAXPROCS set to procs,
// which sizes the trial pool (1 = the inline serial loop). streamed is
// the buffer tr's streaming sink writes to, or nil for a memory tracer,
// whose trace is serialized after the run.
func e2Traced(t *testing.T, procs int, tr *obs.Tracer, streamed *bytes.Buffer) *e2Run {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var tbl bytes.Buffer
	res, err := Run("E2", Options{Seed: refSeed, Trials: 2, Out: &tbl, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	trace := streamed
	if trace == nil {
		trace = new(bytes.Buffer)
		err = tr.WriteJSONL(trace)
	} else {
		err = tr.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return &e2Run{tr: tr, tables: tbl.Bytes(), checks: res.Checks, trace: trace.Bytes(), registry: tr.Registry().Table().String()}
}

// e2Memory runs the scaled-down E2 with a memory tracer.
func e2Memory(t *testing.T, procs int) *e2Run {
	t.Helper()
	return e2Traced(t, procs, obs.NewTracer(), nil)
}

// e2Streamed runs the scaled-down E2 with a streaming JSONL sink
// (deliberately tiny buffer to force many mid-run flushes).
func e2Streamed(t *testing.T, procs, bufSize int) *e2Run {
	t.Helper()
	var out bytes.Buffer
	return e2Traced(t, procs, obs.NewTracerWithSink(obs.NewJSONLSink(&out, bufSize)), &out)
}

// sameE2 requires got to externalize exactly what want did: tables,
// shape checks, JSONL trace and registry snapshot. label names got's
// pool in failure messages.
func sameE2(t *testing.T, label string, want, got *e2Run) {
	t.Helper()
	if !bytes.Equal(want.tables, got.tables) {
		t.Errorf("E2 tables differ between serial and %s:\n--- serial ---\n%s\n--- %s ---\n%s", label, want.tables, label, got.tables)
	}
	if len(want.checks) != len(got.checks) {
		t.Fatalf("E2 check counts differ: serial %d, %s %d", len(want.checks), label, len(got.checks))
	}
	for i := range want.checks {
		if want.checks[i] != got.checks[i] {
			t.Errorf("E2 check %d differs at %s:\n  serial: %+v\n  %s: %+v", i, label, want.checks[i], label, got.checks[i])
		}
	}
	diffTraces(t, "E2 serial vs "+label, want.trace, got.trace)
	if want.registry != got.registry {
		t.Errorf("E2 registry snapshots differ at %s:\n--- serial ---\n%s\n--- %s ---\n%s", label, want.registry, label, got.registry)
	}
}

// e2Serial is the shared reference: serial pool, memory tracer.
func e2Serial(t *testing.T) *e2Run {
	return cached("e2/serial", func() *e2Run { return e2Memory(t, 1) })
}

// e2StreamedParallel is the shared streamed run on a 4-worker pool.
func e2StreamedParallel(t *testing.T) *e2Run {
	return cached("e2/streamed-p4", func() *e2Run { return e2Streamed(t, 4, 4096) })
}

// runCache memoizes deterministic runs that several tests share, keyed
// by what was run. Tests in this package never call t.Parallel, so a
// plain map needs no lock. A run that fails stops its test before its
// result is stored.
var runCache = map[string]any{}

func cached[T any](key string, run func() T) T {
	if v, ok := runCache[key]; ok {
		return v.(T)
	}
	v := run()
	runCache[key] = v
	return v
}
