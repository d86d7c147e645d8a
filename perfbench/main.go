// Command dvcperf is the DVC benchmark: it drives one workload of the
// simulator through its public entry points for a fixed wall-clock
// budget, checks every op, and prints the metrics as one JSON object on
// the last line of standard output. See README.md for the workloads and
// metrics; perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dvc"
	"dvc/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: lsc26, delta-migrate or pscale260")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 10, "wall-clock budget of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "dvcperf: bad arguments: -workload %q -seconds %d -trace %d\n", *name, *seconds, *trace)
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	budget := time.Duration(*seconds) * time.Second

	shape := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CalibBeforeMS: calibrate()}
	var res result
	var info map[string]any
	var err error
	if *trace == 0 {
		res, info = untraced(w, *seed, budget)
	} else {
		spanFile := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		res, info, err = traced(w, *seed, budget, spanFile)
		if err != nil {
			fmt.Fprintf(stderr, "dvcperf: %v\n", err)
			return 1
		}
	}
	shape.CalibAfterMS = calibrate()
	info["workload"], info["seed"], info["machine"] = w.name, *seed, shape

	for _, line := range []any{info, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "dvcperf: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	return 0
}

// machine is the host shape every run records beside its metrics. The
// calibration loop times are there to make host drift visible; they never
// normalise a metric.
type machine struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Go            string  `json:"go"`
	CalibBeforeMS float64 `json:"calib_before_ms"`
	CalibAfterMS  float64 `json:"calib_after_ms"`
}

var calibSink uint64

// calibrate returns the median time, in ms, of a fixed xorshift loop.
func calibrate() float64 {
	xs := make([]float64, 15)
	for r := range xs {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 2_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		xs[r] = ms(time.Since(t0))
	}
	return median(xs)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseOpts configures one measured phase.
type phaseOpts struct {
	budget    time.Duration
	minEpochs int
	host      *hostTrace
	tracer    func() *obs.Tracer // a fresh tracer per epoch; nil = untraced
	memStats  bool               // per-op runtime.MemStats deltas and live-heap snapshots
}

// phase is what one measured phase observed.
type phase struct {
	epochs            int
	attempted, failed int
	errs              []string
	walls             []float64 // ms, every timed op of every epoch
	opTime            time.Duration
	opEvents          uint64    // simulation events fired by the timed ops
	setups            []float64 // s, per epoch
	peakRSS           []float64 // MB, VmHWM reached within each epoch
	digests           []string  // per epoch
	sims              []opSim   // timed ops of the first epoch of each input seed
	warmImage         int64     // encoded image bytes of the last warm-up op, first epoch
	endImage          int64     // ... of the last timed op
	warmHeap, endHeap float64   // MB live after a GC, first epoch (memStats only)
	allocBytes        uint64    // across timed ops (memStats only)
	mallocs, gcs      uint64
}

// record counts one attempted op and whether its check failed.
func (p *phase) record(err error) {
	p.attempted++
	if err == nil {
		return
	}
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// consistent reports whether every epoch that replayed an input seed
// reproduced that seed's first digest, and at least one did.
func (p *phase) consistent(seeds int) bool {
	for e, d := range p.digests {
		if d != p.digests[e%seeds] {
			return false
		}
	}
	return len(p.digests) > seeds
}

// digest combines the first digest of every input seed.
func (p *phase) digest(seeds int) string {
	var d digest
	for _, s := range p.digests[:min(seeds, len(p.digests))] {
		d.h = append(d.h, s...)
	}
	return d.sum()
}

func (p *phase) opsPerSec() float64 { return ratio(float64(len(p.walls)), p.opTime.Seconds()) }

// measure runs epochs of w until the budget is spent and at least
// minEpochs have run, then completes the cycle through the input seeds,
// so every input seed weighs the same in the run's figures.
func measure(w *workload, seed int64, o phaseOpts) *phase {
	p := &phase{}
	for start := time.Now(); p.epochs < o.minEpochs || time.Since(start) < o.budget || p.epochs%w.seeds != 0; {
		if !p.epoch(w, seed, o) {
			break
		}
	}
	return p
}

// epoch runs the phase's next epoch: epoch e builds a fresh bed from
// input seed e mod w.seeds, derived from seed, runs the warm-up ops, then
// the timed ops. Set-up time runs from the epoch's start to its first
// timed op. It returns false when the bed cannot be built.
func (p *phase) epoch(w *workload, seed int64, o phaseOpts) bool {
	e := p.epochs
	p.epochs++
	var tr *obs.Tracer
	if o.tracer != nil {
		tr = o.tracer()
	}
	first, fresh := e == 0, e < w.seeds
	var d digest
	// Start every epoch from the same clean heap, returned to the OS, so
	// its peak RSS depends on its own work and not on what earlier epochs
	// left for the scavenger.
	debug.FreeOSMemory()
	resetPeakRSS()
	t0 := time.Now()
	r, err := w.setup(deriveSeed(seed, e%w.seeds), o.host, tr)
	if err != nil {
		p.record(fmt.Errorf("setup: %w", err))
		return false
	}
	for i := 0; i < w.warmup; i++ {
		_, s, err := r.step(i, o.host)
		if err != nil {
			err = fmt.Errorf("warm-up op %d: %w", i, err)
		}
		p.record(err)
		s.fold(&d)
		if first {
			p.warmImage = s.imageBytes
		}
	}
	if first && o.memStats {
		p.warmHeap = liveHeapMB()
	}
	p.setups = append(p.setups, time.Since(t0).Seconds())
	var m0, m1 runtime.MemStats
	for i := w.warmup; i < w.warmup+w.ops; i++ {
		if o.memStats {
			runtime.ReadMemStats(&m0)
		}
		wall, s, err := r.step(i, o.host)
		if o.memStats {
			runtime.ReadMemStats(&m1)
			p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			p.mallocs += m1.Mallocs - m0.Mallocs
			p.gcs += uint64(m1.NumGC - m0.NumGC)
		}
		if err != nil {
			err = fmt.Errorf("op %d: %w", i, err)
		}
		p.record(err)
		p.walls = append(p.walls, ms(wall))
		p.opTime += wall
		p.opEvents += s.events
		s.fold(&d)
		if fresh {
			p.sims = append(p.sims, s)
		}
		if first {
			p.endImage = s.imageBytes
		}
	}
	if first && o.memStats {
		p.endHeap = liveHeapMB()
	}
	p.peakRSS = append(p.peakRSS, peakRSSMB())
	runtime.KeepAlive(r)
	p.digests = append(p.digests, d.sum())
	return true
}

func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// resetPeakRSS restarts the kernel's high-water resident-set count
// (VmHWM), so each epoch's peak is read on its own. A kernel that refuses
// leaves the count cumulative, which only makes later epochs read high.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok { // "  12345 kB"
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// simFigures are the exact simulated end-to-end figures of one epoch.
type simFigures struct {
	DowntimeMS float64 `json:"sim_downtime_ms"`
	SentMB     float64 `json:"ckpt_sent_mb"`
	SkewMS     float64 `json:"save_skew_ms"`
}

func figures(ops []opSim) simFigures {
	var down, skew, sent []float64
	for _, s := range ops {
		down = append(down, float64(s.downtime)/float64(dvc.Millisecond))
		skew = append(skew, float64(s.skew)/float64(dvc.Millisecond))
		sent = append(sent, float64(s.sentBytes)/1e6)
	}
	return simFigures{DowntimeMS: median(down), SentMB: mean(sent), SkewMS: median(skew)}
}

// untraced is the end-to-end run.
func untraced(w *workload, seed int64, budget time.Duration) (result, map[string]any) {
	p := measure(w, seed, phaseOpts{budget: budget, minEpochs: max(w.minEpochs, w.seeds+1)})
	f := figures(p.sims)
	res := result{
		Correct:   p.failed == 0 && p.consistent(w.seeds),
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"ops_per_s":    {p.opsPerSec(), "1/s"},
			"op_p50_ms":    {quantile(p.walls, 0.5), "ms"},
			"op_p90_ms":    {quantile(p.walls, 0.9), "ms"},
			"setup_s":      {median(p.setups), "s"},
			"peak_rss_mb":  {median(p.peakRSS), "MB"},
			"save_skew_ms": {f.SkewMS, "ms"},
		},
	}
	info := map[string]any{
		"epochs": p.epochs, "timed_ops": len(p.walls), "ops_per_epoch": w.ops, "warmup_ops": w.warmup,
		"digest": p.digest(w.seeds), "digests_agree": p.consistent(w.seeds), "sim": f, "errors": p.errs,
	}
	return res, info
}

// traced is the per-layer run. Its epochs alternate between phase A,
// which repeats the untraced run under a CPU profile, and phase B, which
// also attaches the obs tracer with a SummarySink; alternating keeps host
// drift out of their difference. Both phases pay for the profiler, host
// spans and per-op MemStats, so their ops/s differ by the tracer alone.
// For the partitioned workload, phase C then alternates 1- and 2-worker
// ops.
func traced(w *workload, seed int64, budget time.Duration, spanFile string) (result, map[string]any, error) {
	share := budget
	if w.partitioned {
		share = budget * 3 / 5
	}
	host := newHostTrace()
	var sinks []*obs.SummarySink
	var tracers []*obs.Tracer
	optsA := phaseOpts{host: host, memStats: true}
	optsB := phaseOpts{host: newHostTrace(), memStats: true, tracer: func() *obs.Tracer {
		sinks = append(sinks, obs.NewSummarySink())
		tracers = append(tracers, obs.NewTracerWithSink(sinks[len(sinks)-1]))
		return tracers[len(tracers)-1]
	}}
	a, b := &phase{}, &phase{}
	cpu := map[string]float64{}
	for start := time.Now(); a.epochs <= w.seeds || b.epochs <= w.seeds || time.Since(start) < share; {
		ok := true
		prof, err := profiled(func() { ok = a.epoch(w, seed, optsA) })
		if err != nil {
			return result{}, nil, err
		}
		if err := addCPU(cpu, prof); err != nil {
			return result{}, nil, err
		}
		if _, err := profiled(func() { ok = b.epoch(w, seed, optsB) && ok }); err != nil {
			return result{}, nil, err
		}
		if !ok {
			break
		}
	}
	shares, err := percentages(cpu)
	if err != nil {
		return result{}, nil, err
	}

	var records, retransmits float64
	spanMedians := map[string]float64{}
	for i, tr := range tracers {
		s := sinks[i]
		records += float64(s.Total())
		retransmits += tr.Registry().Counter("tcp.retransmits")
		for _, n := range s.SpanNames() {
			if _, ok := spanMedians[n]; !ok {
				spanMedians[n] = s.Spans(n).Percentile(50) * 1000
			}
		}
	}
	bOps := float64(b.attempted)

	var speedup, util float64
	c := &phase{}
	if w.partitioned {
		speedup, util = workerScaling(c, seed, budget-share)
	}

	m := layerMetrics(a)
	m["partition.speedup_2w"] = metric{speedup, "ratio"}
	m["partition.cpu_util"] = metric{util, "cpu/wall"}
	m["tcp.retransmits_per_op"] = metric{ratio(retransmits, bOps), "count"}
	m["obs.records_per_op"] = metric{ratio(records, bOps), "count"}
	m["obs.overhead_pct"] = metric{100 * ratio(a.opsPerSec()-b.opsPerSec(), a.opsPerSec()), "%"}
	for _, name := range []string{"setup.topology", "setup.boot", "op.lsc", "op.run", "op.prune", "op.pscale"} {
		m[name+"_ms"] = metric{host.medianMS(name), "ms"}
	}
	for name, v := range shares {
		m[name] = metric{v, "%"}
	}
	if err := host.writePerfetto(spanFile); err != nil {
		return result{}, nil, err
	}
	res := result{
		Correct:   a.failed+b.failed+c.failed == 0 && a.consistent(w.seeds) && b.consistent(w.seeds),
		Attempted: a.attempted + b.attempted + c.attempted,
		Failed:    a.failed + b.failed + c.failed,
		Metrics:   m,
	}
	info := map[string]any{
		"digest": a.digest(w.seeds), "digests_agree": a.consistent(w.seeds) && b.consistent(w.seeds),
		"traced_digest": b.digest(w.seeds), "epochs": []int{a.epochs, b.epochs},
		"sim_spans_ms": spanMedians, "span_file": spanFile, "errors": append(append(a.errs, b.errs...), c.errs...),
	}
	return res, info, nil
}

// profiled runs fn under the CPU profiler and returns the gzipped
// profile.
func profiled(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// layerMetrics derives the deterministic per-layer counts from the first
// epoch of every input seed in an untraced phase, plus its runtime figures.
func layerMetrics(p *phase) map[string]metric {
	n := float64(len(p.sims))
	var sum opSim
	var store []float64
	for _, s := range p.sims {
		sum.events += s.events
		sum.packets += s.packets
		sum.netBytes += s.netBytes
		sum.droppedDown += s.droppedDown
		sum.haloRounds += s.haloRounds
		sum.imageBytes += s.imageBytes
		sum.sentBytes += s.sentBytes
		sum.logicalBytes += s.logicalBytes
		sum.attempts += s.attempts
		sum.barriers += s.barriers
		sum.gateWaits += s.gateWaits
		sum.fwd += s.fwd
		sum.resets += s.resets
		store = append(store, float64(s.storeTime)/float64(dvc.Second))
	}
	var last opSim
	if len(p.sims) > 0 {
		last = p.sims[len(p.sims)-1]
	}
	f := figures(p.sims)
	timed := float64(len(p.walls))
	return map[string]metric{
		"sim.events_per_op":           {ratio(float64(sum.events), n), "count"},
		"sim.ns_per_event":            {ratio(float64(p.opTime.Nanoseconds()), float64(p.opEvents)), "ns"},
		"partition.barriers_per_op":   {ratio(float64(sum.barriers), n), "count"},
		"partition.gate_waits_per_op": {ratio(float64(sum.gateWaits), n), "count"},
		"partition.forwarded_per_op":  {ratio(float64(sum.fwd), n), "count"},
		"netsim.packets_per_op":       {ratio(float64(sum.packets), n), "count"},
		"netsim.mb_per_op":            {ratio(float64(sum.netBytes)/1e6, n), "MB"},
		"netsim.drop_paused_pct":      {100 * ratio(float64(sum.droppedDown), float64(sum.packets)), "%"},
		"tcp.resets":                  {float64(sum.resets), "count"},
		"guest.halo_rounds_per_op":    {ratio(float64(sum.haloRounds), n), "count"},
		"vm.image_kb_per_op":          {ratio(float64(sum.imageBytes)/1024, n), "KB"},
		"vm.image_kb_per_op.warmup":   {float64(p.warmImage) / 1024, "KB"},
		"vm.image_kb_per_op.end":      {float64(p.endImage) / 1024, "KB"},
		"storage.dedup_ratio":         {ratio(float64(sum.logicalBytes), float64(sum.sentBytes)), "ratio"},
		"storage.pool_mb":             {float64(last.poolBytes) / 1e6, "MB"},
		"storage.total_mb":            {float64(last.storeBytes) / 1e6, "MB"},
		"storage.ckpt_sent_mb":        {f.SentMB, "MB"},
		"core.sim_downtime_ms":        {f.DowntimeMS, "ms"},
		"core.store_s":                {median(store), "s"},
		"core.attempts_per_op":        {ratio(float64(sum.attempts), n), "count"},
		"runtime.alloc_mb_per_op":     {ratio(float64(p.allocBytes)/1e6, timed), "MB"},
		"runtime.mallocs_per_op":      {ratio(float64(p.mallocs), timed), "count"},
		"runtime.gc_cycles_per_op":    {ratio(float64(p.gcs), timed), "count"},
		"runtime.live_heap_mb.warmup": {p.warmHeap, "MB"},
		"runtime.live_heap_mb.end":    {p.endHeap, "MB"},
	}
}

// workerScaling alternates 1- and 2-worker partitioned ops on the same
// inputs for the budget, recording each op's check in p, and returns the
// ratio of their median op times and the CPU seconds per wall second of
// the 2-worker ops.
func workerScaling(p *phase, seed int64, budget time.Duration) (speedup, util float64) {
	one, two := &pscale{seed: deriveSeed(seed, 0), workers: 1}, &pscale{seed: deriveSeed(seed, 0), workers: 2}
	var t1, t2 []float64
	var cpu, wall time.Duration
	for i, start := 0, time.Now(); len(t1) < 3 || time.Since(start) < budget; i++ {
		d, _, err := one.step(i, nil)
		p.record(err)
		t1 = append(t1, ms(d))
		c0 := cpuTime()
		d, _, err = two.step(i, nil)
		cpu += cpuTime() - c0
		p.record(err)
		wall += d
		t2 = append(t2, ms(d))
	}
	return ratio(median(t1), median(t2)), ratio(cpu.Seconds(), wall.Seconds())
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
