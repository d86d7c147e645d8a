// Command dvcctl drives a DVC scenario end to end and narrates what
// happens — the operator's view of the system.
//
// Usage:
//
//	dvcctl -scenario checkpoint   # run HPL, take an LSC checkpoint, finish
//	dvcctl -scenario recover      # crash a node mid-run, restore from checkpoint
//	dvcctl -scenario migrate      # move a live virtual cluster between clusters
//	dvcctl -scenario livemigrate  # the same, with pre-copy
//	dvcctl -scenario naive        # reproduce the naive coordinator's failure
//	dvcctl -script plan.dvc       # run your own script ("-" = stdin)
//
// Each scenario is a script in internal/script/scenarios, embedded in the
// binary and run through the same interpreter as -script; the script
// fixes the cluster sizes. -seed seeds the simulation. The script
// language is documented in internal/script.
//
// The exit status is 1 if the script fails (including a failed
// assert-ok) and 2 for bad flags, an unknown scenario or an unreadable
// script file.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dvc"
	"dvc/internal/script"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvcctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario   = fs.String("scenario", "checkpoint", strings.Join(script.Scenarios(), " | "))
		seed       = fs.Int64("seed", 42, "simulation seed")
		scriptPath = fs.String("script", "", "run a script from this file (\"-\" = stdin) instead of a scenario")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var src io.Reader
	switch *scriptPath {
	case "":
		b, err := script.Scenario(*scenario)
		if err != nil {
			fmt.Fprintln(stderr, "dvcctl:", err)
			return 2
		}
		src = bytes.NewReader(b)
	case "-":
		src = os.Stdin
	default:
		f, err := os.Open(*scriptPath)
		if err != nil {
			fmt.Fprintln(stderr, "dvcctl:", err)
			return 2
		}
		defer f.Close()
		src = f
	}

	dvc.WriteBanner(stdout)
	if err := script.New(*seed, stdout).Run(src); err != nil {
		fmt.Fprintln(stderr, "dvcctl:", err)
		return 1
	}
	return 0
}
