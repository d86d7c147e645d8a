package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dvc/internal/core"
	"dvc/internal/obs"
	"dvc/internal/phys"
	"dvc/internal/sim"
	"dvc/internal/storage"
	"dvc/internal/vm"
)

// scaleShapes are the benchmark topologies: the paper's 26 nodes, then
// 10x and 100x. The workload is pinned at 8 VMs throughout, so any
// ns/event growth is pure substrate overhead.
var scaleShapes = []ScaleSpec{
	{DCs: 1, ClustersPerDC: 1, HostsPerCluster: 26},
	{DCs: 1, ClustersPerDC: 10, HostsPerCluster: 26},
	{DCs: 10, ClustersPerDC: 10, HostsPerCluster: 26},
}

// scaleTraceJSONL runs one traced scale run and returns the exact JSONL
// bytes its trace serializes to.
func scaleTraceJSONL(t *testing.T, seed int64, spec ScaleSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracerWithSink(obs.NewJSONLSink(&buf, 0))
	res, err := RunScale(seed, spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("scale run failed: ckpt=%v job=%v", res.CheckpointOK, res.JobOK)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScaleReplayDigest is the generated-topology determinism property
// end-to-end: same -dc/-cluster/-host flags and seed must reproduce the
// E2-shaped run byte for byte — inventory, node listing, and the full
// JSONL event trace.
func TestScaleReplayDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("traced 260-node replay pair")
	}
	spec := ScaleSpec{DCs: 2, ClustersPerDC: 5, HostsPerCluster: 26}
	a := scaleTraceJSONL(t, 20070917, spec)
	b := scaleTraceJSONL(t, 20070917, spec)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("traced scale replay diverged: %d vs %d bytes", len(a), len(b))
	}
}

// TestScale2600Smoke drives the full 2600-node topology end-to-end. It
// runs under -race in CI, where it doubles as the data-race check over
// the interned SoA node state.
func TestScale2600Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("2600-node run")
	}
	res, err := RunScale(7, ScaleSpec{DCs: 10, ClustersPerDC: 10, HostsPerCluster: 26}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 2600 || res.Clusters != 100 {
		t.Fatalf("generated %d nodes in %d clusters, want 2600 in 100", res.Nodes, res.Clusters)
	}
	if !res.OK() {
		t.Fatalf("2600-node run failed: ckpt=%v job=%v", res.CheckpointOK, res.JobOK)
	}
}

// substrateBytesPerNode measures the resident heap cost of building the
// substrate alone — site, topology, clocks, hypervisors, fabric ports —
// per generated node.
func substrateBytesPerNode(spec ScaleSpec) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k := sim.NewKernel(1)
	site := phys.DefaultSite(k)
	if _, err := phys.BuildTopo(site, spec.Topo()); err != nil {
		panic(err)
	}
	store := storage.New(k, storage.DefaultConfig())
	mgr := core.NewManager(k, site, store, vm.DefaultXenConfig())
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesUsed := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(mgr)
	return bytesUsed / float64(spec.Nodes())
}

// BenchmarkScale is the E2-shaped workload on the generated 26/260/2600
// node topologies: wall-clock ns per kernel event (must stay flat-ish as
// the substrate grows 100x) and resident bytes per node. The 2x flatness
// gate runs inside the benchmark, so a CI run at -benchtime 1x fails if
// idle substrate leaks into the event path; TestSubstrateBytesPerNode
// gates bytes per node. Run:
//
//	go test -run '^$' -bench BenchmarkScale -benchtime 1x ./internal/experiments
func BenchmarkScale(b *testing.B) {
	nsPerEvent := make(map[int]float64)
	for _, spec := range scaleShapes {
		spec := spec
		b.Run(fmt.Sprintf("n%d", spec.Nodes()), func(b *testing.B) {
			bytesPerNode := substrateBytesPerNode(spec)
			var totalEvents uint64
			var totalWall time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res, err := RunScale(20070917, spec, nil)
				totalWall += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK() {
					b.Fatalf("scale run failed: %+v", res)
				}
				totalEvents += res.Events
			}
			b.StopTimer()
			ns := float64(totalWall.Nanoseconds()) / float64(totalEvents)
			nsPerEvent[spec.Nodes()] = ns
			b.ReportMetric(ns, "ns/event")
			b.ReportMetric(bytesPerNode, "bytes/node")
		})
	}
	// The acceptance gate: a 100x bigger idle substrate may not slow the
	// fixed-size workload's event dispatch more than 2x.
	if base, big := nsPerEvent[26], nsPerEvent[2600]; base > 0 && big > 2*base {
		b.Fatalf("ns/event not flat: %.0f at 26 nodes vs %.0f at 2600 (>2x)", base, big)
	}
}

// maxSubstrateBytesPerNode bounds substrateBytesPerNode per scale shape:
// the figures recorded when the delta-checkpoint chunk pool landed
// (807/583/529 B), plus 15%, rounded down.
var maxSubstrateBytesPerNode = map[int]float64{26: 928, 260: 670, 2600: 607}

// TestSubstrateBytesPerNode is the resident-memory gate for the generated
// substrate: a per-node field or index that grows every host trips it
// long before it shows in wall clock.
func TestSubstrateBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates heap figures")
	}
	// Warm up once so lazy initialisation is not billed to the first
	// shape.
	substrateBytesPerNode(scaleShapes[0])
	for _, spec := range scaleShapes {
		got, limit := substrateBytesPerNode(spec), maxSubstrateBytesPerNode[spec.Nodes()]
		t.Logf("%s: %.0f bytes/node (gate %.0f)", spec, got, limit)
		if got > limit {
			t.Errorf("%s substrate holds %.0f bytes/node, gate is %.0f", spec, got, limit)
		}
	}
}
