package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"dvc/internal/obs"
)

// refSeed is the seed of every shared reference run: the equivalence
// runs here and the replay pairs in replay_test.go.
const refSeed = 20070917 // CLUSTER 2007

// e2Run is every byte one traced E2 {Trials 2} run externalizes.
type e2Run struct {
	tables   []byte
	checks   []Check
	trace    []byte // the streamed JSONL trace
	records  int    // records the tracer streamed
	registry string
}

// e2Traced runs the scaled-down E2 with GOMAXPROCS set to procs, which
// sizes the trial pool (1 = the inline serial loop), streaming its trace
// through a JSONLSink with a bufSize-byte buffer (<= 0 = the default).
func e2Traced(t *testing.T, procs, bufSize int) *e2Run {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var tbl, trace bytes.Buffer
	tr := obs.NewTracerWithSink(obs.NewJSONLSink(&trace, bufSize))
	res, err := Run("E2", Options{Seed: refSeed, Trials: 2, Out: &tbl, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return &e2Run{tables: tbl.Bytes(), checks: res.Checks, trace: trace.Bytes(),
		records: tr.Len(), registry: tr.Registry().Table().String()}
}

// e2Pair is the package's one serial/parallel pair of E2 runs, shared
// by the equivalence tests in parallel_test.go: the serial run
// (GOMAXPROCS=1, the inline loop, default trace buffer) and a 4-worker
// run whose trace streams through a 4096-byte buffer that forces many
// mid-run flushes. Each test checks its own part of what the two runs
// externalize, and the runs are made once.
func e2Pair(t *testing.T) (serial, parallel *e2Run) {
	t.Helper()
	serial = cached("e2/serial", func() *e2Run { return e2Traced(t, 1, 0) })
	parallel = cached("e2/4-workers/4096", func() *e2Run { return e2Traced(t, 4, 4096) })
	return serial, parallel
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
