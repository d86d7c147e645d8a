// Command dvclint runs the determinism lint suite over the module.
//
// Usage:
//
//	go run ./cmd/dvclint ./...                        # whole module, text output
//	go run ./cmd/dvclint -format=sarif -o out.sarif ./...
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
// stale one is itself a finding. Output formats (-format): text
// (default) and sarif (SARIF 2.1.0, which CI archives as a build
// artifact). Both are deterministic, globally sorted by (file, line,
// analyzer).
//
// Exit status is 0 when the tree is clean, 1 when there are findings
// (or the manifest is stale), 2 on usage or load errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dvc/internal/analysis"
	"dvc/internal/analysis/loader"
	"dvc/internal/analysis/report"
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
		format        = fs.String("format", "text", "output format: text or sarif")
		out           = fs.String("o", "", "write findings to this file instead of stdout")
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
	switch *format {
	case "text", "sarif":
	default:
		fmt.Fprintf(stderr, "dvclint: unknown -format %q (want text or sarif)\n", *format)
		return 2
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
		if analysis.InModule(pkg.PkgPath) {
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

	var findings []report.Finding
	for _, pkg := range modulePkgs {
		analyzers := analysis.AnalyzersFor(pkg.PkgPath)
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
			fmt.Fprintf(stderr, "dvclint: %s [%s]\n", pkg.PkgPath, strings.Join(names, " "))
		}
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "dvclint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			findings = append(findings, report.Finding{
				File:     relPath(root, pos.Filename),
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	report.Sort(findings)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "dvclint: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "text":
		err = report.WriteText(w, findings)
	case "sarif":
		var rules []report.RuleDoc
		for _, a := range analysis.All() {
			rules = append(rules, report.RuleDoc{Name: a.Name, Doc: a.Doc})
		}
		rules = append(rules, report.RuleDoc{
			Name: analysis.DirectiveAnalyzer,
			Doc:  "malformed, unknown-name, unjustified or stale //lint:allow directives",
		})
		err = report.WriteSARIF(w, findings, rules)
	}
	if err != nil {
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
// with forward slashes, so output is stable across checkouts and usable
// as a SARIF artifact URI.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}
