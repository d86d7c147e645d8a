package loader_test

import (
	"fmt"
	"testing"

	"dvc/internal/analysis"
	"dvc/internal/analysis/loader"
)

// TestLoadSimPackage proves the go-list/export-data pipeline produces a
// fully type-checked package.
func TestLoadSimPackage(t *testing.T) {
	root, err := loader.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, "dvc/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Types.Path() != "dvc/internal/sim" {
		t.Fatalf("want exactly dvc/internal/sim, got %v", pkgs)
	}
	pkg := pkgs[0]
	if pkg.Types == nil || pkg.Types.Scope().Lookup("Kernel") == nil {
		t.Fatal("type information missing: sim.Kernel not found in package scope")
	}
	if len(pkg.Files) == 0 || len(pkg.Info.Uses) == 0 {
		t.Fatal("parsed files or Uses map empty")
	}
}

// TestRepoIsLintClean is the acceptance gate: `go run ./cmd/dvclint ./...`
// must exit 0, and running it as part of `go test ./...` keeps every
// future PR honest without needing a separate CI step to catch drift.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	root, err := loader.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected the whole module (>20 packages), got %d", len(pkgs))
	}
	clean := true
	for _, pkg := range pkgs {
		if !analysis.InModule(pkg.Types.Path()) {
			continue
		}
		diags, err := analysis.Run(pkg, analysis.AnalyzersFor(pkg.Types.Path()))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			clean = false
			t.Errorf("%s: %s (%s)", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	if clean {
		fmt.Println("dvclint: module is clean")
	}
}
