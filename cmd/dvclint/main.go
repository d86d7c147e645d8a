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
// or recorded in a reviewed baseline file (-baseline), keyed by
// (analyzer, file, message) so unrelated line drift does not invalidate
// entries. Output formats (-format): text (default), json, sarif
// (SARIF 2.1.0, consumed by CI for inline annotations). All formats are
// deterministic, globally sorted by (file, line, analyzer).
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
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dvclint", flag.ContinueOnError)
	var (
		runOnly       = fs.String("run", "", "comma-separated analyzer names to run (default: all that apply per package)")
		list          = fs.Bool("list", false, "list analyzers and exit")
		verbose       = fs.Bool("v", false, "report the packages checked")
		format        = fs.String("format", "text", "output format: text, json, or sarif")
		out           = fs.String("o", "", "write findings to this file instead of stdout")
		baselinePath  = fs.String("baseline", "", "filter findings through this reviewed baseline file")
		writeBaseline = fs.String("write-baseline", "", "write current findings as a baseline file and exit")
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
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "dvclint: unknown -format %q (want text, json or sarif)\n", *format)
		return 2
	}

	var only map[string]bool
	if *runOnly != "" {
		only = make(map[string]bool)
		for _, name := range strings.Split(*runOnly, ",") {
			name = strings.TrimSpace(name)
			if analysis.ByName(name) == nil {
				fmt.Fprintf(os.Stderr, "dvclint: unknown analyzer %q\n", name)
				return 2
			}
			only[name] = true
		}
	}

	root, err := loader.ModuleRoot(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvclint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(root, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvclint: %v\n", err)
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
			fmt.Fprintf(os.Stderr, "dvclint: %v\n", err)
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
			fmt.Fprintf(os.Stderr, "dvclint: %s [%s]\n", pkg.PkgPath, strings.Join(names, " "))
		}
		diags, err := analysis.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvclint: %v\n", err)
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
				Package:  pkg.PkgPath,
			})
		}
	}
	report.Sort(findings)

	if *writeBaseline != "" {
		var buf bytes.Buffer
		if err := report.WriteBaseline(&buf, findings); err != nil {
			fmt.Fprintf(os.Stderr, "dvclint: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*writeBaseline, buf.Bytes(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dvclint: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "dvclint: wrote %d finding(s) to baseline %s\n", len(findings), *writeBaseline)
		return 0
	}

	if *baselinePath != "" {
		f, err := os.Open(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvclint: %v\n", err)
			return 2
		}
		b, err := report.ParseBaseline(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvclint: %s: %v\n", *baselinePath, err)
			return 2
		}
		var stale []string
		findings, stale = b.Filter(findings)
		for _, s := range stale {
			fmt.Fprintf(os.Stderr, "dvclint: stale baseline entry (debt paid, remove it): %s\n", s)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvclint: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "text":
		err = report.WriteText(w, findings)
	case "json":
		err = report.WriteJSON(w, findings)
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
		fmt.Fprintf(os.Stderr, "dvclint: %v\n", err)
		return 2
	}

	status := 0
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dvclint: %d finding(s)\n", len(findings))
		status = 1
	}

	if *manifestPath != "" {
		want := analysis.StateManifest(modulePkgs)
		got, err := os.ReadFile(*manifestPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dvclint: %v (generate it with -write-manifest %s)\n", err, *manifestPath)
			return 2
		}
		if !bytes.Equal(got, want) {
			fmt.Fprintf(os.Stderr, "dvclint: %s is stale: checkpoint state changed; regenerate with\n  go run ./cmd/dvclint -write-manifest %s ./...\nand review the diff as a checkpoint-format change\n",
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
