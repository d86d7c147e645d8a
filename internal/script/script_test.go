package script

import (
	"bytes"
	"strings"
	"testing"

	"dvc/internal/hpcc"
)

func run(t *testing.T, seed int64, src string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	in := New(seed, &out)
	err := in.Run(strings.NewReader(src))
	return out.String(), err
}

// runScenario runs an embedded scenario at dvcctl's default seed and
// checks that its narration contains every wanted line fragment.
func runScenario(t *testing.T, name string, want ...string) {
	t.Helper()
	src, err := Scenario(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(t, 42, string(src))
	if err != nil {
		t.Fatalf("%s: script failed: %v\n%s", name, err, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("%s: output missing %q:\n%s", name, w, out)
		}
	}
}

func TestCheckpointScenarioScript(t *testing.T) {
	runScenario(t, "checkpoint",
		"cluster alpha: 8 nodes", "job1 ready", "checkpoint gen 0: skew 2.139274ms", "all 4 ranks succeeded")
}

func TestCrashRecoveryScript(t *testing.T) {
	runScenario(t, "recover",
		"NODE alpha-n00 CRASHED", "restored from gen 0", "all 4 ranks succeeded")
}

func TestMigrationScripts(t *testing.T) {
	runScenario(t, "migrate",
		"migrated to beta: downtime 10.752957671s", "placement=[beta-n00 beta-n01 beta-n02 beta-n03]",
		"all 4 ranks succeeded")
}

func TestLiveMigrateScript(t *testing.T) {
	runScenario(t, "livemigrate",
		"live-migrated to beta: downtime 780.074139ms after 3 rounds", "all 4 ranks succeeded")
}

func TestScriptErrors(t *testing.T) {
	// saved leaves job j checkpointed at generation 0 and torn down
	// (Saved), with cluster b free.
	const saved = "cluster a 2\ncluster b 2\nstart\nalloc j 2\nrun j halo 100000 20ms 64\nadvance 1s\ncheckpoint j\nteardown j\n"
	cases := map[string]string{
		"unknown command":      "frobnicate\n",
		"unknown vc":           "cluster a 2\nstart\ncheckpoint nope\n",
		"bad node count":       "cluster a zero\n",
		"unknown node":         "cluster a 2\ncrash ghost\n",
		"unknown workload":     "cluster a 2\nstart\nalloc j 2\nrun j quake3\n",
		"bad duration":         "cluster a 2\nstart\nadvance sideways\n",
		"unknown lsc mode":     "lsc telepathy\n",
		"impossible migration": "cluster a 2\nstart\nalloc j 2\nmigrate j a\n",
		"assert on failed job": "cluster a 2\nstart\nalloc j 2\nrun j halo 100000 20ms 64\ncrash a-n00\nadvance 60s\nassert-ok j\n",
		"restore of no image":  saved + "restore j 7 b\n",
		"migrate when saved":   saved + "migrate j b\n",
		"livemigrate saved":    saved + "livemigrate j b\n",
	}
	for name, src := range cases {
		_, err := run(t, 5, src)
		if err == nil {
			t.Fatalf("%s: script accepted", name)
		}
		// The user sees the cause, never a nil error or a raw result.
		if msg := err.Error(); strings.Contains(msg, "<nil>") || strings.Contains(msg, "&{") {
			t.Errorf("%s: error text %q", name, msg)
		}
	}
}

// TestAssertOkRequiresVerifiedRanks: a job whose ranks all exited 0 still
// fails assert-ok when one rank's app did not verify. HPL and PTRANS exit
// 0 whether or not their numerical check passed.
func TestAssertOkRequiresVerifiedRanks(t *testing.T) {
	var out bytes.Buffer
	in := New(9, &out)
	if err := in.Run(strings.NewReader("cluster alpha 2\nstart\nalloc j 2\nrun j hpl 32\nwait j 1h\nassert-ok j\n")); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	in.vcs["j"].RankApps()[1].(*hpcc.HPL).Passed = false
	err := in.Run(strings.NewReader("assert-ok j\n"))
	if err == nil || !strings.Contains(err.Error(), "rank 1 exited 0 but did not verify") {
		t.Fatalf("assert-ok on an unverified rank: err = %v", err)
	}
}

// TestBadArgumentsAreLineErrors feeds each malformed command after a
// valid three-line prelude: every one must stop the script with an error
// naming line 4, never a panic, a silent default or a negative duration.
func TestBadArgumentsAreLineErrors(t *testing.T) {
	const prelude = "cluster alpha 4\nstart\nalloc j 2\n"
	for _, cmd := range []string{
		"run j hpl -4",
		"run j hpl 64 0",
		"run j hpl 64 fast",
		"run j halo 10 20ms -1",
		"run j halo abc",
		"run j halo 10 soon",
		"run j halo 10 -20ms",
		"run j halo 10 20ms 64 extra",
		"run j ptrans 0",
		"run j ptrans 24 -5",
		"cluster alpha 4",
		"cluster beta 2601",
		"cluster beta 4 rhel4-mpich extra",
		"run j hpl 4097",
		"run j ptrans 4097",
		"advance -5s",
		"wait j -1s",
		"start now",
		"checkpoint j extra",
		"teardown j extra",
		"status j extra",
		"assert-ok j extra",
		"migrate j alpha extra",
		"livemigrate j alpha extra",
		"restore j 0 alpha extra",
		"wait j 2h extra",
	} {
		_, err := run(t, 8, prelude+cmd+"\n")
		if err == nil || !strings.HasPrefix(err.Error(), "line 4: ") {
			t.Errorf("%q: err = %v, want a line 4 error", cmd, err)
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	if _, err := run(t, 6, "\n# just a comment\n\n"); err != nil {
		t.Fatal(err)
	}
}

func TestStackedClusterScript(t *testing.T) {
	out, err := run(t, 7, `
cluster alpha 2 rhel4-mpich
start
alloc j 2
run j ptrans 24 50
wait j 1h
assert-ok j
`)
	if err != nil {
		t.Fatalf("script failed: %v\n%s", err, out)
	}
}
