package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvc/internal/script"
)

// TestScenariosAtSeed42 runs every embedded scenario the way
// `dvcctl -scenario X` does and checks the simulated outcome lines.
func TestScenariosAtSeed42(t *testing.T) {
	want := map[string][]string{
		"checkpoint": {
			"job1 checkpoint gen 0: skew 2.139274ms, downtime 10.752176275s",
			"[t=57.521728847s] job1 done=true: 4 ok, 0 failed, 0 running",
		},
		"recover": {
			"job1 running ptrans(N=32, reps=20000)",
			"NODE alpha-n00 CRASHED",
			"job1 restored from gen 0 (staging 5.37370912s)",
			"[t=52.556245467s] job1 done=true: 4 ok, 0 failed, 0 running",
			"job1: all 4 ranks succeeded and verified",
		},
		"migrate": {
			"job1 migrated to beta: downtime 10.752957671s",
			"[t=39.75332394s] NODE alpha-n00 CRASHED",
			"[t=2m40.319671127s] job1 done=true: 4 ok, 0 failed, 0 running",
			"job1: all 4 ranks succeeded and verified",
		},
		"livemigrate": {
			"job1 live-migrated to beta: downtime 780.074139ms after 3 rounds",
			"[t=3m11.868578124s] job1 done=true: 4 ok, 0 failed, 0 running",
		},
		"span": {
			"wide ready on alpha-n00 alpha-n01 alpha-n02 alpha-n03 alpha-n04 alpha-n05 beta-n00 beta-n01 beta-n02 beta-n03",
			"[t=26.938425615s] wide done=true: 10 ok, 0 failed, 0 running",
			"wide: all 10 ranks succeeded and verified",
			"wide2 checkpoint gen 0: skew 3.867733ms, downtime 26.861237397s",
			"[t=2m22.934352186s] wide2 done=true: 10 ok, 0 failed, 0 running",
			"wide2: all 10 ranks succeeded and verified",
		},
		"naive": {
			"job1 checkpoint gen 0: skew 4.181231202s",
			"[t=1h1m8.365061078s] job1 done=false: 0 ok, 2 failed, 10 running",
		},
	}
	names := script.Scenarios()
	if len(names) != len(want) {
		t.Fatalf("embedded scenarios %v, want the %d in this test", names, len(want))
	}
	for _, name := range names {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scenario", name, "-seed", "42"}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s\n%s", name, code, stderr.String(), stdout.String())
		}
		lines, ok := want[name]
		if !ok {
			t.Fatalf("scenario %s has no expected outcome", name)
		}
		for _, w := range lines {
			if !strings.Contains(stdout.String(), w) {
				t.Errorf("%s: output missing %q:\n%s", name, w, stdout.String())
			}
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "nope"},
		{"-script", filepath.Join(t.TempDir(), "missing.dvc")},
		{"-nodes", "4"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}

func TestFailedScriptExits1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.dvc")
	if err := os.WriteFile(path, []byte("cluster alpha 2\nfrobnicate\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := run([]string{"-script", path}, &bytes.Buffer{}, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "line 2: unknown command") {
		t.Fatalf("stderr = %q, want the line 2 error", stderr.String())
	}
}
