// Package experiments regenerates every quantitative claim in the paper's
// evaluation (plus the extension experiments DESIGN.md catalogues). Each
// experiment is a named runner that prints paper-style tables and returns
// machine-checkable "shape" assertions: who wins, by roughly what factor,
// and where the crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"dvc/internal/fleet"
	"dvc/internal/metrics"
	"dvc/internal/obs"
)

// Options configures a run.
type Options struct {
	// Seed makes the run reproducible.
	Seed int64
	// Trials scales statistical experiments; 0 = the experiment's quick
	// default.
	Trials int
	// Full requests paper-scale parameters (e.g. E2's >2000 trials);
	// expect long runtimes.
	Full bool
	// Out receives the printed tables; nil discards them.
	Out io.Writer
	// Tracer, when non-nil, records a deterministic event trace of the
	// run (internal/obs). One tracer may span every trial of an
	// experiment; virtual time restarts per trial and the exporters
	// re-sort. Each sweep measurement records into a private child
	// tracer and the children are merged back in (cell, trial) order, so
	// the trace bytes do not depend on how many workers ran the trials.
	// Experiments that do not support tracing ignore it.
	Tracer *obs.Tracer
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// trials is a statistical experiment's trial count: quick by default,
// -trials N when given, and full under -full when the experiment has a
// paper-scale count (full = 0: -full keeps the quick or -trials count).
func (o Options) trials(quick, full int) int {
	switch {
	case o.Full && full > 0:
		return full
	case o.Trials != 0:
		return o.Trials
	}
	return quick
}

// sweep is the experiments' one trial runner: it measures every cell
// (an experiment's arm, size or configuration) trials times across the
// fleet pool (one worker per GOMAXPROCS; GOMAXPROCS=1 is the inline
// serial loop) and returns each cell's results in trial order, so
// callers aggregate with ordinary index-ordered loops and print the
// bytes a serial loop would.
//
// Each measurement receives a private child tracer (nil when
// opts.Tracer is nil); after every measurement finishes the children
// are merged back into opts.Tracer one at a time in (cell, trial)
// order, preserving the byte-identical JSONL replay contract under
// parallelism.
//
// measure must be self-contained: build its own bed and kernel from the
// cell and trial (its seed included), trace only through tr, and return
// all its measurements. It must never write to shared state, a table
// included: it runs on a worker goroutine. `go test -race ./...` catches
// a shared write, and dvclint's fleetscope a captured kernel.
func sweep[C, T any](opts Options, cells []C, trials int, measure func(c C, trial int, tr *obs.Tracer) T) [][]T {
	children := make([]*obs.Tracer, len(cells)*trials)
	flat := fleet.Map(0, len(children), func(i int) T {
		children[i] = opts.Tracer.Child()
		return measure(cells[i/trials], i%trials, children[i])
	})
	for _, c := range children {
		opts.Tracer.Merge(c)
	}
	out := make([][]T, len(cells))
	for ci := range out {
		out[ci] = flat[ci*trials : (ci+1)*trials]
	}
	return out
}

// Check is one shape assertion against the paper.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is an experiment's outcome.
type Result struct {
	ID     string
	Title  string
	Tables []*metrics.Table
	Checks []Check
}

// FailedChecks lists the failed assertions.
func (r *Result) FailedChecks() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *Result) table(t *metrics.Table, w io.Writer) {
	r.Tables = append(r.Tables, t)
	fmt.Fprintln(w, t.String())
}

// Runner executes one experiment.
type Runner func(Options) *Result

type entry struct {
	id, title string
	run       Runner
}

var registry []entry

func register(id, title string, run Runner) {
	registry = append(registry, entry{id, title, run})
}

// IDs lists registered experiment ids in order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's title.
func Title(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.title
		}
	}
	return ""
}

// Run executes the experiment with the given id.
func Run(id string, opts Options) (*Result, error) {
	for _, e := range registry {
		if e.id == id {
			fmt.Fprintf(opts.out(), "--- %s: %s ---\n", e.id, e.title)
			res := e.run(opts)
			res.ID, res.Title = e.id, e.title
			for _, c := range res.Checks {
				status := "PASS"
				if !c.OK {
					status = "FAIL"
				}
				fmt.Fprintf(opts.out(), "check %-40s %s  (%s)\n", c.Name, status, c.Detail)
			}
			fmt.Fprintln(opts.out())
			return res, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
}

// RunAll executes every experiment in id order.
func RunAll(opts Options) ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		res, err := Run(id, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
