// Command dvcsim regenerates the paper's tables and figures.
//
// Usage:
//
//	dvcsim -list
//	dvcsim -exp E1 [-seed 42] [-trials 20]
//	dvcsim -exp all [-full]
//	dvcsim -exp E2 -trials 1 -trace e2.jsonl
//	dvcsim -exp E2 -report out/           # self-contained run artifact
//	dvcsim -dc 1 -cluster 2 -host 4 -vm 4 # scale mode: generated topology
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
// With -trace a deterministic event trace of the run is streamed as
// JSONL through a fixed-size buffer (same seed, same flags =>
// byte-identical output), so tracer memory stays bounded no matter how
// long the run is. dvctrace works on the recorded trace: -convert
// exports Chrome trace_events for ui.perfetto.dev, and -query filters
// and samples it deterministically (by type, node, domain, time window
// or every Nth record). Tracing also prints (or, with -json, embeds) the
// counter-registry snapshot. The trace is flushed and closed on every
// exit, so a run that fails a check, errors or panics keeps what it
// recorded.
//
// -report dir/ writes a self-contained run artifact: config.json (the
// run's flags), results.json (tables + checks), registry.json,
// trace.jsonl, summary.json (per-type counts, span percentiles) and
// series.jsonl (windowed registry metrics sampled on virtual time).
//
// -dc selects scale mode: it generates -dc datacenters of -cluster
// clusters of -host hosts, drives one -vm wide LSC job over them and
// prints throughput figures. Scale mode runs no paper experiment, so it
// rejects the experiment flags (-exp, -trials, -full, -json, -report)
// with exit status 2.
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
	"slices"
	"strings"
	"time"

	"dvc"
	"dvc/internal/obs"
)

// main delegates to run so deferred profile writers execute before the
// process exits with run's status code.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experimentFlags are the flags scale mode rejects: it would ignore them.
var experimentFlags = []string{"exp", "trials", "full", "json", "report"}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("dvcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dvcsim:", err)
		return 2
	}
	var (
		exp      = fs.String("exp", "all", "experiment id ("+strings.Join(dvc.ExperimentIDs(), ", ")+") or \"all\"")
		seed     = fs.Int64("seed", 42, "simulation seed")
		trials   = fs.Int("trials", 0, "trial count for statistical experiments (0 = default)")
		full     = fs.Bool("full", false, "paper-scale parameters (slow: E2 runs >2000 trials)")
		list     = fs.Bool("list", false, "list experiments and exit")
		jsonOut  = fs.Bool("json", false, "emit results as JSON instead of tables")
		traceOut = fs.String("trace", "", "stream a deterministic JSONL event trace to this file")
		report   = fs.String("report", "", "write a self-contained run artifact into this directory")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		dcs      = fs.Int("dc", 0, "scale mode: generate this many datacenters (enables -cluster/-host/-vm)")
		clusters = fs.Int("cluster", 10, "scale mode: clusters per datacenter")
		hosts    = fs.Int("host", 26, "scale mode: hosts per cluster")
		vms      = fs.Int("vm", 8, "scale mode: virtual-cluster width of the reference job")
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
	if *dcs > 0 {
		var set []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(experimentFlags, f.Name) {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fail(fmt.Errorf("scale mode (-dc) runs no experiment; drop %s", strings.Join(set, " ")))
		}
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

	// Assemble the trace pipeline: every requested consumer becomes one
	// sink on a shared tee, so the run records once and each sink sees the
	// identical stream.
	var (
		tracer  *dvc.Tracer
		summary *obs.SummarySink // only with -report
		sinks   []obs.Sink
		closers []*os.File
	)
	if *report != "" {
		if err := os.MkdirAll(*report, 0o755); err != nil {
			return fail(err)
		}
		f, err := os.Create(filepath.Join(*report, "trace.jsonl"))
		if err != nil {
			return fail(err)
		}
		closers = append(closers, f)
		summary = obs.NewSummarySink()
		sinks = append(sinks, obs.NewJSONLSink(f, 0), summary)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		closers = append(closers, f)
		sinks = append(sinks, obs.NewJSONLSink(f, 0))
	}
	if len(sinks) > 0 {
		tracer = obs.NewTracerWithSink(obs.Tee(sinks...))
		opts.Tracer = tracer
		// Every exit (an error, a failed check, a panic) flushes and
		// closes the trace, so a failed run keeps what it recorded.
		defer func() {
			if err := closeTrace(tracer, closers); err != nil {
				code = fail(err)
			}
		}()
	}

	if *dcs > 0 {
		spec := dvc.ScaleSpec{DCs: *dcs, ClustersPerDC: *clusters, HostsPerCluster: *hosts, VMs: *vms}
		ok, err := runScaleMode(stdout, spec, *seed, tracer)
		if err == nil && ok {
			return 0
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stderr, "dvcsim: scale run failed")
		return 1
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
		if *report != "" {
			if err := writeReport(*report, *exp, *seed, *trials, *full, results, tracer, summary); err != nil {
				return fail(err)
			}
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
// streamed trace.jsonl: config, results (tables + checks),
// registry snapshot, streaming trace summary and the windowed metric
// series. Every file's bytes are a pure function of the run.
func writeReport(dir, exp string, seed int64, trials int, full bool,
	results []*dvc.ExperimentResult, tracer *dvc.Tracer, summary *obs.SummarySink) error {
	writeJSON := func(name string, v any) error {
		return writeFile(filepath.Join(dir, name), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		})
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
	if err := writeJSON("registry.json", tracer.Registry()); err != nil {
		return err
	}
	if err := writeJSON("summary.json", &summary.Summary); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, "series.jsonl"), tracer.Series().WriteJSONL)
}

// runScaleMode generates a -dc/-cluster/-host topology, drives the
// reference LSC workload over it end-to-end, and prints throughput
// figures. ok is false if the checkpoint or the job failed.
func runScaleMode(stdout io.Writer, spec dvc.ScaleSpec, seed int64, tracer *dvc.Tracer) (ok bool, err error) {
	start := time.Now()
	res, err := dvc.RunScale(seed, spec, tracer)
	if err != nil {
		return false, err
	}
	wall := time.Since(start)

	// The inventory is one line per cluster; summarize past 20 clusters.
	lines := strings.Split(strings.TrimRight(res.Inventory, "\n"), "\n")
	const invHead = 4 // topology + leaf/spine/wan profile lines
	if len(lines) > invHead+20 {
		fmt.Fprintln(stdout, strings.Join(lines[:invHead+20], "\n"))
		fmt.Fprintf(stdout, "... (%d more clusters)\n", len(lines)-invHead-20)
	} else {
		fmt.Fprintln(stdout, strings.Join(lines, "\n"))
	}
	fmt.Fprintf(stdout, "scale: nodes=%d clusters=%d vms=%d sim=%v\n", res.Nodes, res.Clusters, res.VMs, res.SimTime)
	fmt.Fprintf(stdout, "scale: events=%d wall=%v ns/event=%.0f events/s=%.0f\n",
		res.Events, wall.Round(time.Millisecond),
		float64(wall.Nanoseconds())/float64(res.Events),
		float64(res.Events)/wall.Seconds())
	fmt.Fprintf(stdout, "scale: checkpoint=%v job=%v skew=%.2fms\n", res.CheckpointOK, res.JobOK, res.SaveSkew.Seconds()*1000)

	if tracer != nil {
		fmt.Fprintf(stdout, "dvcsim: %d trace events recorded\n", tracer.Len())
	}
	return res.OK(), nil
}

// closeTrace flushes the tracer and closes every trace file, reporting
// the first error.
func closeTrace(tracer *dvc.Tracer, files []*os.File) error {
	err := tracer.Flush()
	for _, f := range files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// writeFile writes one exporter's output to path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
