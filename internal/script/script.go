// Package script implements dvcctl's orchestration language: a tiny
// line-oriented command language for driving DVC scenarios — build
// clusters, allocate virtual clusters, run workloads, checkpoint, crash
// nodes, migrate, restore — deterministically and reproducibly. The
// scenarios dvcctl ships live in scenarios/*.dvc, embedded in the
// binary (Scenarios, Scenario).
//
//	# build the site
//	cluster alpha 4 rhel4-mpich
//	cluster beta 4
//	start
//
//	alloc job1 4 clusters=alpha
//	run job1 halo 5000 20ms 2048
//	advance 2s
//	checkpoint job1
//	crash alpha-n01
//	teardown job1
//	restore job1 0 beta
//	wait job1 2h
//	assert-ok job1
package script

import (
	"bufio"
	"embed"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path"
	"strconv"
	"strings"
	"time"

	"dvc"
	"dvc/internal/hpcc"
)

//go:embed scenarios/*.dvc
var scenarios embed.FS

// Scenarios lists the names of the embedded scenarios, sorted.
func Scenarios() []string {
	files, _ := fs.Glob(scenarios, "scenarios/*.dvc") // the pattern is valid
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = strings.TrimSuffix(path.Base(f), ".dvc")
	}
	return names
}

// Scenario returns the source of the named embedded scenario.
func Scenario(name string) ([]byte, error) {
	src, err := scenarios.ReadFile("scenarios/" + name + ".dvc")
	if err != nil {
		return nil, fmt.Errorf("unknown scenario %q (want one of %s)", name, strings.Join(Scenarios(), ", "))
	}
	return src, nil
}

// Interpreter executes one script against a fresh simulation.
type Interpreter struct {
	sim *dvc.Simulation
	out io.Writer

	vcs  map[string]*dvc.VirtualCluster
	line int
}

// New creates an interpreter writing progress to out.
func New(seed int64, out io.Writer) *Interpreter {
	return &Interpreter{
		sim: dvc.NewSimulation(seed),
		out: out,
		vcs: make(map[string]*dvc.VirtualCluster),
	}
}

func (in *Interpreter) say(format string, args ...any) {
	fmt.Fprintf(in.out, "[t=%8v] %s\n", in.sim.Now(), fmt.Sprintf(format, args...))
}

func (in *Interpreter) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", in.line, fmt.Sprintf(format, args...))
}

// Run executes the script.
func (in *Interpreter) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		in.line++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if err := in.exec(fields[0], fields[1:]); err != nil {
			return err
		}
	}
	return sc.Err()
}

func (in *Interpreter) exec(cmd string, args []string) error {
	switch cmd {
	case "cluster":
		return in.cmdCluster(args)
	case "start":
		if len(args) != 0 {
			return in.errf("usage: start")
		}
		in.sim.Start()
		in.say("site started (NTP disciplining clocks)")
		return nil
	case "lsc":
		return in.cmdLSC(args)
	case "alloc":
		return in.cmdAlloc(args)
	case "run":
		return in.cmdRun(args)
	case "advance":
		return in.cmdAdvance(args)
	case "checkpoint":
		return in.cmdCheckpoint(args)
	case "migrate", "livemigrate":
		return in.cmdMigrate(cmd, args)
	case "crash":
		return in.cmdCrash(args, false)
	case "repair":
		return in.cmdCrash(args, true)
	case "teardown":
		vc, err := in.vc(args, 1, 1)
		if err != nil {
			return err
		}
		vc.Teardown()
		in.say("%s torn down", vc.Name())
		return nil
	case "restore":
		return in.cmdRestore(args)
	case "wait":
		return in.cmdWait(args)
	case "status":
		return in.cmdStatus(args)
	case "assert-ok":
		vc, err := in.vc(args, 1, 1)
		if err != nil {
			return err
		}
		js := vc.JobStatus()
		if !js.AllOK() {
			return in.errf("assert-ok %s: %d running, %d failed", vc.Name(), js.Running, js.Failed)
		}
		for rank, app := range vc.RankApps() {
			if !hpcc.Verified(app) {
				return in.errf("assert-ok %s: rank %d exited 0 but did not verify", vc.Name(), rank)
			}
		}
		in.say("%s: all %d ranks succeeded and verified", vc.Name(), js.Succeeded)
		return nil
	default:
		return in.errf("unknown command %q", cmd)
	}
}

// vc checks that a command got between least and most arguments and
// resolves the first one to a virtual cluster.
func (in *Interpreter) vc(args []string, least, most int) (*dvc.VirtualCluster, error) {
	switch {
	case len(args) < least:
		return nil, in.errf("expected at least %d argument(s), got %d", least, len(args))
	case len(args) > most:
		return nil, in.errf("expected at most %d argument(s), got %d", most, len(args))
	}
	vc, ok := in.vcs[args[0]]
	if !ok {
		return nil, in.errf("unknown virtual cluster %q", args[0])
	}
	return vc, nil
}

func (in *Interpreter) duration(s string) (dvc.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, in.errf("bad duration %q: %v", s, err)
	}
	if d < 0 {
		return 0, in.errf("bad duration %q: negative", s)
	}
	return dvc.Time(d.Nanoseconds()), nil
}

// Script input is untrusted, and each bound below caps an allocation
// sized by an argument. maxClusterNodes is the largest site the
// repository builds (SCALE -full: 10 datacenters x 10 clusters x 26
// hosts); maxMatrixOrder caps the N*N float64s HPL's rank 0 gathers at
// 128 MiB.
const (
	maxClusterNodes = 2600
	maxMatrixOrder  = 4096
)

func (in *Interpreter) cmdCluster(args []string) error {
	if len(args) < 2 || len(args) > 3 {
		return in.errf("usage: cluster <name> <nodes> [stack]")
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n <= 0 || n > maxClusterNodes {
		return in.errf("bad node count %q (want 1 to %d)", args[1], maxClusterNodes)
	}
	if in.sim.Site().Cluster(args[0]) != nil {
		return in.errf("duplicate cluster %q", args[0])
	}
	in.sim.AddCluster(args[0], n)
	if len(args) >= 3 {
		in.sim.Site().SetClusterStack(args[0], args[2])
	}
	in.say("cluster %s: %d nodes", args[0], n)
	return nil
}

func (in *Interpreter) cmdLSC(args []string) error {
	if len(args) < 1 {
		return in.errf("usage: lsc ntp|naive [continue]")
	}
	var cfg dvc.LSCConfig
	switch args[0] {
	case "ntp":
		cfg = dvc.NTPLSC()
	case "naive":
		cfg = dvc.NaiveLSC()
	default:
		return in.errf("unknown LSC mode %q", args[0])
	}
	for _, opt := range args[1:] {
		switch opt {
		case "continue":
			cfg.ContinueAfterSave = true
		default:
			return in.errf("unknown LSC option %q", opt)
		}
	}
	in.sim.SetLSC(cfg)
	in.say("LSC coordinator: %s", args[0])
	return nil
}

func (in *Interpreter) cmdAlloc(args []string) error {
	if len(args) < 2 {
		return in.errf("usage: alloc <vc> <nodes> [clusters=a,b]")
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n <= 0 {
		return in.errf("bad node count %q", args[1])
	}
	spec := dvc.VCSpec{Name: args[0], Nodes: n, VMRAM: 256 << 20}
	for _, opt := range args[2:] {
		if rest, ok := strings.CutPrefix(opt, "clusters="); ok {
			spec.Clusters = strings.Split(rest, ",")
		} else {
			return in.errf("unknown alloc option %q", opt)
		}
	}
	vc, err := in.sim.Allocate(spec)
	if err != nil {
		return in.errf("alloc: %v", err)
	}
	in.vcs[args[0]] = vc
	in.say("%s ready on %v", vc.Name(), placementString(vc))
	return nil
}

func placementString(vc *dvc.VirtualCluster) string {
	var ids []string
	for _, n := range vc.PhysicalNodes() {
		ids = append(ids, n.ID())
	}
	return strings.Join(ids, " ")
}

func (in *Interpreter) cmdRun(args []string) error {
	vc, err := in.vc(args, 2, math.MaxInt) // makeApp bounds the workload's arguments
	if err != nil {
		return err
	}
	app, desc, err := in.makeApp(args[1], args[2:])
	if err != nil {
		return err
	}
	if _, err := vc.LaunchMPI(6000, app); err != nil {
		return in.errf("run: %v", err)
	}
	in.say("%s running %s", vc.Name(), desc)
	return nil
}

// makeApp parses a workload spec into a per-rank factory. Arguments are
// positional and optional; one that is given must parse and be in range.
func (in *Interpreter) makeApp(kind string, args []string) (func(int) dvc.App, string, error) {
	var bad error // the first argument that failed to parse
	given := func(i int) bool { return i < len(args) && bad == nil }
	intArg := func(i int, what string, def, least, most int) int {
		if !given(i) {
			return def
		}
		v, err := strconv.Atoi(args[i])
		switch {
		case err != nil || v < least:
			bad = in.errf("run %s: bad %s %q (want an integer >= %d)", kind, what, args[i], least)
		case v > most:
			bad = in.errf("run %s: %s %d exceeds %d", kind, what, v, most)
		}
		return v
	}
	durationArg := func(i int, def dvc.Time) dvc.Time {
		if !given(i) {
			return def
		}
		d, err := in.duration(args[i])
		bad = err
		return d
	}
	var (
		app     func(int) dvc.App
		desc    string
		maxArgs int
	)
	switch kind {
	case "halo":
		rounds := intArg(0, "round count", 5000, 1, math.MaxInt)
		period := durationArg(1, 20*dvc.Millisecond)
		msg := intArg(2, "message size", 2048, 0, math.MaxInt)
		app = func(int) dvc.App { return dvc.NewHalo(rounds, period, msg) }
		desc, maxArgs = fmt.Sprintf("halo(rounds=%d, period=%v, msg=%dB)", rounds, period, msg), 3
	case "hpl":
		n := intArg(0, "matrix order", 128, 1, maxMatrixOrder)
		gf := 2e-5
		if given(1) {
			v, err := strconv.ParseFloat(args[1], 64)
			if err != nil || !(v > 0) || math.IsInf(v, 0) {
				bad = in.errf("run hpl: bad GF/s %q (want a positive number)", args[1])
			}
			gf = v
		}
		app = func(int) dvc.App { return dvc.NewHPL(n, 42, gf) }
		desc, maxArgs = fmt.Sprintf("hpl(N=%d, %g GF/s)", n, gf), 2
	case "ptrans":
		n := intArg(0, "matrix order", 32, 1, maxMatrixOrder)
		reps := intArg(1, "repetition count", 500, 1, math.MaxInt)
		app = func(int) dvc.App { return dvc.NewPTRANS(n, 42, reps, 10) }
		desc, maxArgs = fmt.Sprintf("ptrans(N=%d, reps=%d)", n, reps), 2
	default:
		return nil, "", in.errf("unknown workload %q (halo|hpl|ptrans)", kind)
	}
	if bad != nil {
		return nil, "", bad
	}
	if len(args) > maxArgs {
		return nil, "", in.errf("run %s: at most %d argument(s), got %d", kind, maxArgs, len(args))
	}
	return app, desc, nil
}

func (in *Interpreter) cmdAdvance(args []string) error {
	if len(args) != 1 {
		return in.errf("usage: advance <duration>")
	}
	d, err := in.duration(args[0])
	if err != nil {
		return err
	}
	in.sim.RunFor(d)
	in.say("advanced %v", d)
	return nil
}

func (in *Interpreter) cmdCheckpoint(args []string) error {
	vc, err := in.vc(args, 1, 1)
	if err != nil {
		return err
	}
	res, err := in.sim.Checkpoint(vc)
	if err != nil {
		return in.errf("checkpoint: %v", err)
	}
	if !res.OK {
		return in.errf("checkpoint failed: %s", res.Reason)
	}
	in.say("%s checkpoint gen %d: skew %v, downtime %v", vc.Name(), res.Generation, res.SaveSkew, res.Downtime)
	return nil
}

func (in *Interpreter) cmdMigrate(cmd string, args []string) error {
	vc, err := in.vc(args, 2, 2)
	if err != nil {
		return err
	}
	targets := in.sim.FreeNodes(args[1])
	if len(targets) < vc.Spec().Nodes {
		return in.errf("%s: cluster %q has %d free nodes, need %d", cmd, args[1], len(targets), vc.Spec().Nodes)
	}
	targets = targets[:vc.Spec().Nodes]
	if cmd == "livemigrate" {
		res, err := in.sim.LiveMigrate(vc, targets)
		if err != nil {
			return in.errf("livemigrate: %v", err)
		}
		if !res.OK {
			return in.errf("livemigrate failed: %s", res.Reason)
		}
		in.say("%s live-migrated to %s: downtime %v after %d rounds", vc.Name(), args[1], res.Downtime, res.Rounds)
		return nil
	}
	res, err := in.sim.Migrate(vc, targets)
	if err != nil {
		return in.errf("migrate: %v", err)
	}
	if !res.OK {
		return in.errf("migrate failed: %s", res.Reason)
	}
	in.say("%s migrated to %s: downtime %v", vc.Name(), args[1], res.Downtime)
	return nil
}

func (in *Interpreter) cmdCrash(args []string, repair bool) error {
	if len(args) != 1 {
		return in.errf("usage: crash|repair <node-id>")
	}
	n, ok := in.sim.Site().Node(args[0])
	if !ok {
		return in.errf("unknown node %q", args[0])
	}
	if repair {
		n.Repair()
		in.say("node %s repaired", n.ID())
	} else {
		n.Fail()
		in.say("NODE %s CRASHED", n.ID())
	}
	return nil
}

func (in *Interpreter) cmdRestore(args []string) error {
	vc, err := in.vc(args, 3, 3)
	if err != nil {
		return err
	}
	gen, err := strconv.Atoi(args[1])
	if err != nil {
		return in.errf("bad generation %q", args[1])
	}
	targets := in.sim.FreeNodes(args[2])
	if len(targets) < vc.Spec().Nodes {
		return in.errf("restore: cluster %q has %d free nodes, need %d", args[2], len(targets), vc.Spec().Nodes)
	}
	res, err := in.sim.Recover(vc, gen, targets[:vc.Spec().Nodes])
	if err != nil {
		return in.errf("restore: %v", err)
	}
	if !res.OK {
		return in.errf("restore failed: %s", res.Reason)
	}
	in.say("%s restored from gen %d (staging %v)", vc.Name(), gen, res.StageTime)
	return nil
}

func (in *Interpreter) cmdWait(args []string) error {
	vc, err := in.vc(args, 1, 2)
	if err != nil {
		return err
	}
	limit := 2 * dvc.Hour
	if len(args) >= 2 {
		if d, err := in.duration(args[1]); err == nil {
			limit = d
		} else {
			return err
		}
	}
	js := in.sim.RunUntilJobDone(vc, limit)
	in.say("%s done=%v: %d ok, %d failed, %d running", vc.Name(), js.Done(), js.Succeeded, js.Failed, js.Running)
	return nil
}

func (in *Interpreter) cmdStatus(args []string) error {
	vc, err := in.vc(args, 1, 1)
	if err != nil {
		return err
	}
	js := vc.JobStatus()
	in.say("%s state=%v placement=[%s] job: %d running, %d ok, %d failed",
		vc.Name(), vc.State(), placementString(vc), js.Running, js.Succeeded, js.Failed)
	return nil
}
