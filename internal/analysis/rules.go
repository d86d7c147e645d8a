package analysis

import "strings"

// All returns every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NoWallClock, NoGlobalRand, MapIter, NoConcurrency, NoAlloc, FleetScope,
	}
}

// ByName resolves an analyzer by its Name, for cmd/dvclint's -run flag.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// simPackages are the deterministic simulation packages: everything that
// executes inside (or feeds state into) the discrete-event kernel. The
// strict analyzers — nowallclock and noconcurrency — apply only here;
// cmd/ CLIs may legitimately read the host clock to report progress to
// a human.
//
// dvc/internal/fleet is DELIBERATELY absent: it is the single sanctioned
// concurrency package in the module — the bounded worker pool that fans
// independent trials across cores. The sanction rests on two structural
// properties fleet's API enforces and `go test -race ./...` checks:
//
//  1. Kernels never cross goroutines. Each trial closure builds its own
//     sim.Kernel (and everything hanging off it) and tears it down before
//     returning; no simulation object is ever shared between workers.
//     The fleetscope analyzer enforces this structurally: closures passed
//     to fleet entry points must not capture kernel-reaching state.
//  2. Results merge in index order. fleet.Map returns results indexed by
//     trial number, and all aggregation happens on the caller's goroutine
//     after Map returns — so tables, checks and merged traces are
//     byte-identical to a serial loop regardless of worker count.
//
// dvc/internal/sim/partition is absent under the same sanction, for the
// partitioned execution engine (conservative-lookahead PDES): it is the
// one place a barrier (sync.Mutex + sync.Cond) and per-partition driver
// goroutines are allowed to exist. The sanction rests on the structural
// properties its protocol enforces and `go test -race ./...` checks:
//
//  1. Sub-kernels never cross goroutines. Each driver builds its own
//     sim.Kernel and everything hanging off it; the fleetscope analyzer
//     holds closures passed to Coordinator.Run to exactly the fleet
//     worker rule (no captured kernel-reaching state).
//  2. Cross-partition effects are ordered by data, not by the scheduler.
//     Messages execute in (arrival time, source partition id, source
//     sequence) order at barriers whose placement is a pure function of
//     the event schedule, so any worker count replays byte-identically.
//
// Any other concurrency belongs in fleet or nowhere. Do not add fleet or
// sim/partition to this map (noconcurrency would reject their own
// implementations), and do not copy their worker-pool or barrier idioms
// into a simulation package (the noconcurrency fixture proves both
// shapes are still flagged there).
var simPackages = map[string]bool{
	"dvc":                   true, // library facade (dvc.go)
	"dvc/internal/sim":      true,
	"dvc/internal/core":     true,
	"dvc/internal/vm":       true,
	"dvc/internal/netsim":   true,
	"dvc/internal/payload":  true,
	"dvc/internal/tcp":      true,
	"dvc/internal/guest":    true,
	"dvc/internal/mpi":      true,
	"dvc/internal/hpcc":     true,
	"dvc/internal/rm":       true,
	"dvc/internal/workload": true,
	"dvc/internal/ckpt":     true,
	"dvc/internal/clock":    true,
	"dvc/internal/phys":     true,
	"dvc/internal/storage":  true,
	// Layers above the kernel that still must replay deterministically.
	"dvc/internal/script":      true,
	"dvc/internal/metrics":     true,
	"dvc/internal/experiments": true,
	"dvc/internal/obs":         true,
}

// IsSimPackage reports whether the import path belongs to the
// deterministic simulation core.
func IsSimPackage(pkgPath string) bool { return simPackages[pkgPath] }

// AnalyzersFor returns the analyzers that apply to a package.
//
//   - noglobalrand, mapiter, noalloc and fleetscope run over every
//     package in the module: a CLI that draws from the global rand
//     source or prints in map order still breaks reproducible trace
//     generation; //dvc:hotpath functions and fleet call sites carry
//     their obligations wherever they are declared.
//   - nowallclock and noconcurrency are restricted to the simulation
//     packages; cmd/ binaries are the sanctioned home for wall-clock
//     progress reporting and (hypothetical) concurrency.
//
// Test files never reach the analyzers at all: the loader only feeds
// non-test GoFiles, which is the _test.go wall-clock allowlist from the
// determinism spec.
func AnalyzersFor(pkgPath string) []*Analyzer {
	out := []*Analyzer{NoGlobalRand, MapIter, NoAlloc, FleetScope}
	if IsSimPackage(pkgPath) {
		out = append(out, NoWallClock, NoConcurrency)
	}
	return out
}

// InModule reports whether pkgPath is part of this module (the lint
// target), as opposed to a dependency.
func InModule(pkgPath string) bool {
	return pkgPath == "dvc" || strings.HasPrefix(pkgPath, "dvc/")
}
