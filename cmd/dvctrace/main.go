// Command dvctrace generates, validates and summarises job traces for
// the resource-manager experiments, and queries, summarises, converts
// and diffs observability event traces recorded by dvcsim.
//
// Usage:
//
//	dvctrace -gen 20 -seed 7 > trace.json      # synthesise a mix
//	dvctrace -validate trace.json              # parse + sanity-check
//	dvctrace -summary trace.json               # widths, work, arrival span
//	dvctrace -stats e2.jsonl                   # event counts + LSC epoch percentiles
//	dvctrace -query e2.jsonl -type lsc -from 10s -to 2m
//	dvctrace -query e2.jsonl -node n3 -every 10 > sampled.jsonl
//	dvctrace -spans e2.jsonl -top 5            # slowest span names by p99
//	dvctrace -convert e2.jsonl -o e2.json      # offline JSONL → Perfetto
//	dvctrace -diff a.jsonl b.jsonl             # first divergent record
//
// dvcsim records the full event stream; narrowing it (-query by type,
// node, domain, time window or every Nth record) and exporting it for
// Perfetto (-convert) happen here, offline. Event-trace subcommands
// stream the input line at a time, so they work on traces far larger
// than memory; only -convert materialises records (the Perfetto
// metadata needs the full node/domain universe).
//
// -diff compares two traces byte-for-byte line by line and reports the
// first divergent record — the debugging tool for the replay contract:
// two same-seed runs must produce identical traces, and when they don't,
// the first divergence localises the nondeterminism.
//
// Generated job traces feed rm.SubmitTrace (and can be archived next to
// the experiment output that consumed them).
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"dvc/internal/metrics"
	"dvc/internal/obs"
	"dvc/internal/sim"
	"dvc/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvctrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dvctrace:", err)
		return 1
	}
	var (
		gen      = fs.Int("gen", 0, "generate a trace with this many jobs")
		seed     = fs.Int64("seed", 42, "generation seed")
		arrival  = fs.Duration("arrival", 30*time.Second, "mean inter-arrival time")
		workMin  = fs.Duration("work-min", time.Minute, "minimum per-node work")
		workMax  = fs.Duration("work-max", 10*time.Minute, "maximum per-node work")
		validate = fs.String("validate", "", "validate a job trace file")
		summary  = fs.String("summary", "", "summarise a job trace file")
		stats    = fs.String("stats", "", "summarise an observability JSONL event trace (dvcsim -trace)")
		query    = fs.String("query", "", "filter an event trace to stdout as JSONL")
		spans    = fs.String("spans", "", "per-span-name duration percentiles for an event trace")
		topK     = fs.Int("top", 0, "with -spans: only the K slowest span names by p99")
		convert  = fs.String("convert", "", "convert an event trace to Perfetto trace_events JSON")
		out      = fs.String("o", "", "with -convert: output path (default stdout)")
		diff     = fs.Bool("diff", false, "compare two event traces: dvctrace -diff a.jsonl b.jsonl")
		types    = fs.String("type", "", "with -query: comma-separated event types or categories (lsc, vm.pause)")
		nodes    = fs.String("node", "", "with -query: comma-separated node names")
		doms     = fs.String("dom", "", "with -query: comma-separated domain names")
		from     = fs.Duration("from", 0, "with -query: keep records at or after this virtual time")
		to       = fs.Duration("to", 0, "with -query: keep records at or before this virtual time (0 = unbounded)")
		everyN   = fs.Uint64("every", 0, "with -query: keep every Nth instant/counter record (seq%N==0)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	switch {
	case *gen > 0:
		cfg := workload.DefaultMix(*gen)
		cfg.ArrivalMean = sim.Duration(*arrival)
		cfg.WorkMin = sim.Duration(*workMin)
		cfg.WorkMax = sim.Duration(*workMax)
		trace := workload.Generate(rand.New(rand.NewSource(*seed)), cfg)
		if err := workload.WriteTrace(stdout, trace); err != nil {
			return fail(err)
		}
	case *validate != "":
		trace, err := load(*validate)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "ok: %d jobs\n", len(trace))
	case *summary != "":
		trace, err := load(*summary)
		if err != nil {
			return fail(err)
		}
		summarise(stdout, trace)
	case *stats != "":
		if err := eventStats(*stats, stdout); err != nil {
			return fail(err)
		}
	case *query != "":
		cfg := obs.FilterConfig{
			Types:  splitTypes(*types),
			Nodes:  splitList(*nodes),
			Doms:   splitList(*doms),
			From:   sim.Duration(*from),
			To:     sim.Duration(*to),
			EveryN: *everyN,
		}
		if err := queryTrace(*query, cfg, stdout); err != nil {
			return fail(err)
		}
	case *spans != "":
		if err := spanStats(*spans, *topK, stdout); err != nil {
			return fail(err)
		}
	case *convert != "":
		if err := convertTrace(*convert, *out, stdout); err != nil {
			return fail(err)
		}
	case *diff:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dvctrace: -diff needs exactly two trace files")
			return 2
		}
		same, err := diffTraces(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if !same {
			return 1
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

func load(path string) ([]workload.JobSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadTrace(f)
}

func summarise(w io.Writer, trace []workload.JobSpec) {
	if len(trace) == 0 {
		fmt.Fprintln(w, "empty trace")
		return
	}
	var width, work metrics.Sample
	stacks := map[string]int{}
	var lastArrival sim.Time
	var nodeSeconds float64
	for _, j := range trace {
		width.Add(float64(j.Width))
		work.AddTime(j.Work)
		stacks[j.Stack]++
		if j.Arrival > lastArrival {
			lastArrival = j.Arrival
		}
		nodeSeconds += float64(j.Width) * j.Work.Seconds()
	}
	tbl := metrics.NewTable(fmt.Sprintf("trace: %d jobs over %v", len(trace), lastArrival),
		"metric", "min", "mean", "max")
	tbl.Row("width", width.Min(), width.Mean(), width.Max())
	tbl.Row("work (s)", work.Min(), work.Mean(), work.Max())
	fmt.Fprint(w, tbl.String())
	fmt.Fprintf(w, "total demand: %.0f node-seconds\n", nodeSeconds)
	// Sorted stack names: the summary must be byte-identical for the same
	// trace, or diffing archived runs turns into noise (dvclint: mapiter).
	names := make([]string, 0, len(stacks))
	for stack := range stacks {
		names = append(names, stack)
	}
	sort.Strings(names)
	for _, stack := range names {
		n := stacks[stack]
		if stack == "" {
			stack = "(any)"
		}
		fmt.Fprintf(w, "stack %-16s %d jobs\n", stack, n)
	}
}

// eventStats streams an observability JSONL event trace and prints the
// per-event-type record counts plus duration percentiles for LSC epoch
// spans (B/E records paired by span id). One record is held at a time —
// traces larger than memory summarise fine. Output is sorted, so
// identical traces summarise byte-identically.
func eventStats(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	counts := map[string]int{}
	begins := map[uint64]sim.Time{} // lsc.epoch begin TS, keyed by begin seq
	var epochs metrics.Sample
	commits, aborts, total := 0, 0, 0
	err = obs.DecodeJSONL(f, func(r *obs.Record) error {
		total++
		counts[string(r.Type)]++
		switch r.Type {
		case obs.EvLSCEpoch:
			switch r.Ph {
			case obs.PhaseBegin:
				begins[r.Span] = r.TS
			case obs.PhaseEnd:
				if start, ok := begins[r.Span]; ok {
					delete(begins, r.Span)
					epochs.AddTime(r.TS - start)
				}
			}
		case obs.EvLSCCommit:
			commits++
		case obs.EvLSCAbort:
			aborts++
		}
		return nil
	})
	if err != nil {
		return err
	}

	tbl := metrics.NewTable(fmt.Sprintf("event trace: %d records", total), "event", "count")
	types := make([]string, 0, len(counts))
	for typ := range counts {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		tbl.Row(typ, counts[typ])
	}
	fmt.Fprint(w, tbl.String())

	if epochs.N() > 0 {
		fmt.Fprintf(w, "lsc epochs: %d complete (%d commit, %d abort)\n", epochs.N(), commits, aborts)
		fmt.Fprintf(w, "epoch duration  p50 %s  p90 %s  p99 %s  max %s\n",
			fmtDur(epochs.Percentile(50)), fmtDur(epochs.Percentile(90)),
			fmtDur(epochs.Percentile(99)), fmtDur(epochs.Max()))
	}
	return nil
}

// queryTrace streams the trace through the filter, re-emitting matching
// records as JSONL. The output is a valid trace subset: record bytes are
// identical to the input lines (same encoder as the writer), so query
// output feeds back into -stats/-spans/-convert.
func queryTrace(path string, cfg obs.FilterConfig, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sink := obs.NewJSONLSink(w, 0)
	err = obs.DecodeJSONL(f, func(r *obs.Record) error {
		if !cfg.Match(r) {
			return nil
		}
		return sink.WriteRecord(r)
	})
	if err != nil {
		return err
	}
	return sink.Flush()
}

// spanStats streams the trace into a Summary and prints per-span-name
// duration percentiles, slowest first by p99. With top > 0 only the K
// slowest names print.
func spanStats(path string, top int, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sum := obs.NewSummary()
	err = obs.DecodeJSONL(f, func(r *obs.Record) error {
		sum.Add(r)
		return nil
	})
	if err != nil {
		return err
	}

	names := sum.SpanNames()
	// Slowest first by p99; ties break on the sorted name order, so the
	// report is deterministic.
	sort.SliceStable(names, func(a, b int) bool {
		return sum.Spans(names[a]).Percentile(99) > sum.Spans(names[b]).Percentile(99)
	})
	if top > 0 && top < len(names) {
		names = names[:top]
	}
	tbl := metrics.NewTable(fmt.Sprintf("spans: %d records", sum.Total()),
		"span", "count", "p50", "p90", "p99", "max")
	for _, name := range names {
		d := sum.Spans(name)
		tbl.Row(name, d.N(),
			fmtDur(d.Percentile(50)), fmtDur(d.Percentile(90)),
			fmtDur(d.Percentile(99)), fmtDur(d.Max()))
	}
	_, err = fmt.Fprint(w, tbl.String())
	return err
}

// convertTrace converts a JSONL event trace to Perfetto trace_events
// JSON, to stdout unless outPath is set. Runs stream JSONL, so only the
// traces someone actually wants to look at get converted.
func convertTrace(path, outPath string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := stdout
	if outPath != "" {
		of, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	return obs.ConvertJSONL(f, w)
}

// diffTraces compares two JSONL traces line by line, reporting the first
// divergent record (or the point where one trace ends early). Comparison
// is on raw line bytes: the replay contract is byte identity, so a
// semantic comparison would hide real divergences.
func diffTraces(pathA, pathB string, w io.Writer) (same bool, err error) {
	fa, err := os.Open(pathA)
	if err != nil {
		return false, err
	}
	defer fa.Close()
	fb, err := os.Open(pathB)
	if err != nil {
		return false, err
	}
	defer fb.Close()

	sa := bufio.NewScanner(fa)
	sa.Buffer(make([]byte, 0, 64*1024), 16<<20)
	sb := bufio.NewScanner(fb)
	sb.Buffer(make([]byte, 0, 64*1024), 16<<20)
	line := 0
	for {
		okA, okB := sa.Scan(), sb.Scan()
		line++
		switch {
		case okA && okB:
			if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
				fmt.Fprintf(w, "traces diverge at record %d:\n  %s: %s\n  %s: %s\n",
					line, pathA, sa.Bytes(), pathB, sb.Bytes())
				return false, nil
			}
		case okA && !okB:
			if err := sb.Err(); err != nil {
				return false, err
			}
			fmt.Fprintf(w, "%s ends at record %d; %s continues:\n  %s\n", pathB, line-1, pathA, sa.Bytes())
			return false, nil
		case !okA && okB:
			if err := sa.Err(); err != nil {
				return false, err
			}
			fmt.Fprintf(w, "%s ends at record %d; %s continues:\n  %s\n", pathA, line-1, pathB, sb.Bytes())
			return false, nil
		default:
			if err := sa.Err(); err != nil {
				return false, err
			}
			if err := sb.Err(); err != nil {
				return false, err
			}
			fmt.Fprintf(w, "traces identical: %d records\n", line-1)
			return true, nil
		}
	}
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// splitTypes parses the -type flag into event types/categories.
func splitTypes(s string) []obs.EventType {
	parts := splitList(s)
	if parts == nil {
		return nil
	}
	out := make([]obs.EventType, len(parts))
	for i, p := range parts {
		out[i] = obs.EventType(p)
	}
	return out
}

// fmtDur renders a duration sampled in seconds.
func fmtDur(seconds float64) string {
	return sim.Time(seconds * float64(sim.Second)).String()
}
