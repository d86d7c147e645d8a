// Command dvctrace queries, summarises, converts and diffs the
// observability event traces that dvcsim records.
//
// Usage:
//
//	dvctrace -stats e2.jsonl                   # event counts + span percentiles
//	dvctrace -query e2.jsonl -type lsc -from 10s -to 2m
//	dvctrace -query e2.jsonl -node n3 -every 10 > sampled.jsonl
//	dvctrace -convert e2.jsonl -o e2.json      # offline JSONL → Perfetto
//	dvctrace -diff a.jsonl b.jsonl             # first divergent record
//
// dvcsim records the full event stream; narrowing it (-query by type,
// node, domain, time window or every Nth record) and exporting it for
// Perfetto (-convert) happen here, offline. Every subcommand but
// -convert streams the input a line at a time, so it works on traces
// far larger than memory; -convert materialises records (the Perfetto
// metadata needs the full node/domain universe).
//
// -stats folds the trace into an obs.Summary and prints per-type record
// counts, then per-span-name duration percentiles, slowest p99 first.
// It is how a dvcsim -report trace is summarised: the report holds no
// summary file.
//
// -diff compares two traces byte-for-byte line by line and reports the
// first divergent record — the debugging tool for the replay contract:
// two same-seed runs must produce identical traces, and when they don't,
// the first divergence localises the nondeterminism.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dvc/internal/metrics"
	"dvc/internal/obs"
	"dvc/internal/sim"
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
		stats   = fs.String("stats", "", "event counts and per-span duration percentiles of a JSONL event trace (the trace.jsonl of dvcsim -report)")
		query   = fs.String("query", "", "filter an event trace to stdout as JSONL")
		convert = fs.String("convert", "", "convert an event trace to Perfetto trace_events JSON")
		out     = fs.String("o", "", "with -convert: output path (default stdout)")
		diff    = fs.Bool("diff", false, "compare two event traces: dvctrace -diff a.jsonl b.jsonl")
		types   = fs.String("type", "", "with -query: comma-separated event types or categories (lsc, vm.pause)")
		nodes   = fs.String("node", "", "with -query: comma-separated node names")
		doms    = fs.String("dom", "", "with -query: comma-separated domain names")
		from    = fs.Duration("from", 0, "with -query: keep records at or after this virtual time")
		to      = fs.Duration("to", 0, "with -query: keep records at or before this virtual time (0 = unbounded)")
		everyN  = fs.Uint64("every", 0, "with -query: keep every Nth instant/counter record (seq%N==0)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	switch {
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

// eventStats streams an observability JSONL event trace into an
// obs.Summary and prints the per-type record counts, then per-span-name
// duration percentiles, slowest first by p99. Only the summary's counts
// and open spans are held, so traces larger than memory summarise fine.
// Output is sorted, so identical traces summarise byte-identically.
func eventStats(path string, w io.Writer) error {
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

	counts := metrics.NewTable(fmt.Sprintf("event trace: %d records", sum.Total()), "event", "count")
	for _, typ := range sum.Types() {
		counts.Row(string(typ), sum.CountByType(typ))
	}
	fmt.Fprint(w, counts.String())

	names := sum.SpanNames()
	if len(names) == 0 {
		return nil
	}
	// Slowest first by p99; ties break on the sorted name order, so the
	// report is deterministic.
	sort.SliceStable(names, func(a, b int) bool {
		return sum.Spans(names[a]).Percentile(99) > sum.Spans(names[b]).Percentile(99)
	})
	spans := metrics.NewTable("spans", "span", "count", "p50", "p90", "p99", "max")
	for _, name := range names {
		d := sum.Spans(name)
		spans.Row(name, d.N(),
			fmtDur(d.Percentile(50)), fmtDur(d.Percentile(90)),
			fmtDur(d.Percentile(99)), fmtDur(d.Max()))
	}
	_, err = fmt.Fprint(w, spans.String())
	return err
}

// queryTrace streams the trace through the filter, re-emitting matching
// records as JSONL. The output is a valid trace subset: record bytes are
// identical to the input lines (same encoder as the writer), so query
// output feeds back into -stats/-convert.
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
