// Command dvcsim regenerates the paper's tables and figures.
//
// Usage:
//
//	dvcsim -list
//	dvcsim -exp E1 [-seed 42] [-trials 20]
//	dvcsim -exp all [-full]
//	dvcsim -exp E2 -trials 1 -report out/   # self-contained run artifact
//	dvcsim -exp SCALE -full                 # generated 26- to 2600-node topologies
//
// Each experiment prints its table(s) followed by PASS/FAIL shape checks
// against the paper's reported results. The exit status is non-zero if
// any check fails.
//
// Independent trials fan out across a worker pool of GOMAXPROCS workers
// (GOMAXPROCS=1 runs them inline). Every table, check and trace byte is
// identical for any pool size — only wall-clock time changes. PSCALE
// runs on the partitioned engine, one sub-kernel per datacenter.
// -cpuprofile and -memprofile write pprof profiles of the run.
//
// -report dir/ records the run as a self-contained artifact:
// config.json (the run's flags), results.json (tables + checks),
// registry.json and trace.jsonl. trace.jsonl is the deterministic event
// trace, streamed through a fixed-size buffer (same seed, same flags =>
// byte-identical output), so tracer memory stays bounded no matter how
// long the run is. Tracing schedules no kernel events, so a recorded
// run's tables equal an untraced run's. dvctrace works on the trace:
// -stats prints per-type counts and span percentiles, -convert exports
// Chrome trace_events for ui.perfetto.dev, and -query filters and
// samples it deterministically (by type, node, domain, time window or
// every Nth record). A recorded run also prints (or, with -json,
// embeds) the counter-registry snapshot. The trace is flushed and
// closed on every exit, so a run that fails a check, errors or panics
// keeps what it recorded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"dvc"
)

// main delegates to run so deferred profile writers execute before the
// process exits with run's status code.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dvcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dvcsim:", err)
		return 2
	}
	var (
		exp     = fs.String("exp", "all", "experiment id ("+strings.Join(dvc.ExperimentIDs(), ", ")+") or \"all\"")
		seed    = fs.Int64("seed", 42, "simulation seed")
		trials  = fs.Int("trials", 0, "trial count for statistical experiments (0 = default)")
		full    = fs.Bool("full", false, "paper-scale parameters (slow: E2 runs >2000 trials)")
		list    = fs.Bool("list", false, "list experiments and exit")
		jsonOut = fs.Bool("json", false, "emit results as JSON instead of tables")
		report  = fs.String("report", "", "record the run, its JSONL event trace included, into this directory")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *trials < 0 {
		return fail(fmt.Errorf("-trials %d: must not be negative", *trials))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "dvcsim:", err)
				return
			}
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "dvcsim:", err)
			}
			f.Close()
		}()
	}

	if *list {
		dvc.WriteBanner(stdout)
		for _, id := range dvc.ExperimentIDs() {
			fmt.Fprintf(stdout, "  %-4s %s\n", id, dvc.ExperimentTitle(id))
		}
		return 0
	}

	opts := dvc.ExperimentOptions{Seed: *seed, Trials: *trials, Full: *full, Out: stdout}
	if *jsonOut {
		opts.Out = nil // tables land in the JSON document instead
	} else {
		dvc.WriteBanner(stdout)
		fmt.Fprintln(stdout)
	}

	// -report records the run: the trace streams into trace.jsonl.
	var tracer *dvc.Tracer
	if *report != "" {
		if err := os.MkdirAll(*report, 0o755); err != nil {
			return fail(err)
		}
		f, err := os.Create(filepath.Join(*report, "trace.jsonl"))
		if err != nil {
			return fail(err)
		}
		tracer = dvc.NewTracer(f)
		opts.Tracer = tracer
		// Every exit (an error, a failed check, a panic) flushes and
		// closes the trace, so a failed run keeps what it recorded.
		defer func() {
			err := tracer.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				code = fail(err)
			}
		}()
	}

	var results []*dvc.ExperimentResult
	if *exp == "all" {
		all, err := dvc.RunAllExperiments(opts)
		if err != nil {
			return fail(err)
		}
		results = all
	} else {
		res, err := dvc.RunExperiment(*exp, opts)
		if err != nil {
			return fail(err)
		}
		results = append(results, res)
	}

	if tracer != nil {
		if err := writeReport(*report, *exp, *seed, *trials, *full, results, tracer); err != nil {
			return fail(err)
		}
		if !*jsonOut {
			fmt.Fprintln(stdout, tracer.Registry().Table().String())
			fmt.Fprintf(stdout, "dvcsim: %d trace events recorded\n\n", tracer.Len())
		}
	}

	failed := 0
	for _, res := range results {
		for range res.FailedChecks() {
			failed++
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		var err error
		if tracer != nil {
			// Merge the counter-registry snapshot alongside the results.
			err = enc.Encode(struct {
				Results  []*dvc.ExperimentResult `json:"results"`
				Registry json.Marshaler          `json:"registry"`
			}{results, tracer.Registry()})
		} else {
			err = enc.Encode(results)
		}
		if err != nil {
			return fail(err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "dvcsim: %d shape check(s) FAILED\n", failed)
		return 1
	}
	if !*jsonOut {
		fmt.Fprintln(stdout, "dvcsim: all shape checks passed")
	}
	return 0
}

// writeReport lays down the self-contained run artifact next to the
// streamed trace.jsonl: config, results (tables + checks) and the
// registry snapshot. Every file's bytes are a pure function of the run.
func writeReport(dir, exp string, seed int64, trials int, full bool,
	results []*dvc.ExperimentResult, tracer *dvc.Tracer) error {
	writeJSON := func(name string, v any) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	cfg := struct {
		Experiment string `json:"experiment"`
		Seed       int64  `json:"seed"`
		Trials     int    `json:"trials,omitempty"`
		Full       bool   `json:"full,omitempty"`
	}{exp, seed, trials, full}
	if err := writeJSON("config.json", cfg); err != nil {
		return err
	}
	if err := writeJSON("results.json", results); err != nil {
		return err
	}
	return writeJSON("registry.json", tracer.Registry())
}
