// Command dvclint runs the determinism lint suite over the module.
//
// Usage:
//
//	go run ./cmd/dvclint ./...                        # whole module
//	go run ./cmd/dvclint -run mapiter ./internal/sim
//	go run ./cmd/dvclint -write-manifest STATE_MANIFEST.txt ./...
//	go run ./cmd/dvclint -manifest STATE_MANIFEST.txt ./...   # fail if stale
//	go run ./cmd/dvclint -list
//
// dvclint is a multichecker in the golang.org/x/tools sense, built on the
// repo's own dependency-free framework (internal/analysis). It enforces
// the determinism invariants documented in DESIGN.md: nowallclock,
// noglobalrand, mapiter, noconcurrency, snapshotstate, noalloc and
// fleetscope. Findings can be waived line-by-line with a mandatory
// justification:
//
//	//lint:allow <analyzer>[,<analyzer>] <why this is safe>
//
// That directive is the only way to waive a finding; an unjustified or
// stale one is itself a finding. Findings print as text, one per line
// (file:line:col: [analyzer] message), deterministically, sorted by
// (file, line, analyzer, column, message), so output diffs cleanly
// across runs and machines.
//
// Exit status is 0 when the tree is clean, 1 when there are findings
// (or the manifest is stale), 2 on usage or load errors.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dvc/internal/analysis"
	"dvc/internal/analysis/loader"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runOnly       = fs.String("run", "", "comma-separated analyzer names to run (default: all that apply per package)")
		list          = fs.Bool("list", false, "list analyzers and exit")
		verbose       = fs.Bool("v", false, "report the packages checked")
		manifestPath  = fs.String("manifest", "", "fail if this checkpoint state manifest is out of date")
		writeManifest = fs.String("write-manifest", "", "write the checkpoint state manifest and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dvclint [flags] [packages]\n\nDeterminism lint for the DVC simulation core.\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	var only map[string]bool
	if *runOnly != "" {
		only = make(map[string]bool)
		for _, name := range strings.Split(*runOnly, ",") {
			name = strings.TrimSpace(name)
			if analysis.ByName(name) == nil {
				fmt.Fprintf(stderr, "dvclint: unknown analyzer %q\n", name)
				return 2
			}
			only[name] = true
		}
	}

	root, err := loader.ModuleRoot(".")
	if err != nil {
		fmt.Fprintf(stderr, "dvclint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(root, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "dvclint: %v\n", err)
		return 2
	}

	var modulePkgs []*analysis.Package
	for _, pkg := range pkgs {
		if analysis.InModule(pkg.Types.Path()) {
			modulePkgs = append(modulePkgs, pkg)
		}
	}

	// Manifest modes operate on the same loaded packages as the lint run,
	// so the golden file always reflects exactly what the suite saw.
	if *writeManifest != "" {
		if err := os.WriteFile(*writeManifest, analysis.StateManifest(modulePkgs), 0o644); err != nil {
			fmt.Fprintf(stderr, "dvclint: %v\n", err)
			return 2
		}
		return 0
	}

	var findings []finding
	for _, pkg := range modulePkgs {
		analyzers := analysis.AnalyzersFor(pkg.Types.Path())
		if only != nil {
			var filtered []*analysis.Analyzer
			for _, a := range analyzers {
				if only[a.Name] {
					filtered = append(filtered, a)
				}
			}
			analyzers = filtered
		}
		if *verbose {
			names := make([]string, len(analyzers))
			for i, a := range analyzers {
				names[i] = a.Name
			}
			fmt.Fprintf(stderr, "dvclint: %s [%s]\n", pkg.Types.Path(), strings.Join(names, " "))
		}
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "dvclint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			findings = append(findings, finding{
				File:     relPath(root, pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	sortFindings(findings)
	if err := writeText(stdout, findings); err != nil {
		fmt.Fprintf(stderr, "dvclint: %v\n", err)
		return 2
	}

	status := 0
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "dvclint: %d finding(s)\n", len(findings))
		status = 1
	}

	if *manifestPath != "" {
		want := analysis.StateManifest(modulePkgs)
		got, err := os.ReadFile(*manifestPath)
		if err != nil {
			fmt.Fprintf(stderr, "dvclint: %v (generate it with -write-manifest %s)\n", err, *manifestPath)
			return 2
		}
		if !bytes.Equal(got, want) {
			fmt.Fprintf(stderr, "dvclint: %s is stale: checkpoint state changed; regenerate with\n  go run ./cmd/dvclint -write-manifest %s ./...\nand review the diff as a checkpoint-format change\n",
				*manifestPath, *manifestPath)
			status = 1
		}
	}
	return status
}

// relPath rewrites an absolute source path to be module-root-relative
// with forward slashes, so output is stable across checkouts.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}

// finding is one diagnostic with its position resolved to a
// module-relative path.
type finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// sortFindings orders findings canonically: by file, then line, then
// analyzer, then column, then message.
func sortFindings(fs []finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}

// writeText writes the findings, one per line.
func writeText(w io.Writer, fs []finding) error {
	bw := bufio.NewWriter(w)
	for _, f := range fs {
		fmt.Fprintf(bw, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	return bw.Flush()
}
