package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"dvc/internal/analysis"
)

// Each analyzer is exercised against a fixture package with both positive
// (// want) and negative cases, including the //lint:allow escape hatch.

func TestNoWallClock(t *testing.T)   { runFixture(t, analysis.NoWallClock, "nowallclock") }
func TestNoGlobalRand(t *testing.T)  { runFixture(t, analysis.NoGlobalRand, "noglobalrand") }
func TestMapIter(t *testing.T)       { runFixture(t, analysis.MapIter, "mapiter") }
func TestNoConcurrency(t *testing.T) { runFixture(t, analysis.NoConcurrency, "noconcurrency") }

// The dvclint v2 analyzers: hot-path allocation and fleet capture scope.

func TestNoAlloc(t *testing.T)    { runFixture(t, analysis.NoAlloc, "noalloc") }
func TestFleetScope(t *testing.T) { runFixture(t, analysis.FleetScope, "fleetscope") }

func TestByName(t *testing.T) {
	for _, a := range analysis.All() {
		if analysis.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if analysis.ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}

func TestAllCount(t *testing.T) {
	if got := len(analysis.All()); got != 6 {
		t.Errorf("suite has %d analyzers, want 6 (four v1 checks plus noalloc, fleetscope)", got)
	}
}

func TestScoping(t *testing.T) {
	if !analysis.IsSimPackage("dvc/internal/sim") {
		t.Error("internal/sim must be a sim package")
	}
	if analysis.IsSimPackage("dvc/cmd/dvcsim") {
		t.Error("cmd/ must not be a sim package (wall-clock allowlist)")
	}
	if analysis.IsSimPackage("dvc/internal/fleet") {
		t.Error("internal/fleet is the sanctioned concurrency package and must not be a sim package (see simPackages in rules.go)")
	}
	if got := len(analysis.AnalyzersFor("dvc/internal/core")); got != 6 {
		t.Errorf("sim packages get all 6 analyzers, got %d", got)
	}
	if got := len(analysis.AnalyzersFor("dvc/cmd/dvctrace")); got != 4 {
		t.Errorf("cmd packages get 4 analyzers, got %d", got)
	}
	if !analysis.InModule("dvc") || !analysis.InModule("dvc/internal/sim") || analysis.InModule("fmt") {
		t.Error("InModule misclassifies")
	}
}

// loadSource type-checks an in-memory file as package "p" with no
// imports, for directive-mechanics tests that don't need a fixture
// directory.
func loadSource(t *testing.T, src string) *analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewInfo()
	var conf types.Config
	files := []*ast.File{f}
	tpkg, err := conf.Check("p", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	return &analysis.Package{Fset: fset, Files: files, Types: tpkg, Info: info}
}

// TestAllowRequiresJustification pins the directive-parser contract from
// the ISSUE: a //lint:allow with no <why> text does not suppress and is
// itself reported, a justified one suppresses, and a justified one that
// suppresses nothing is reported stale.
func TestAllowRequiresJustification(t *testing.T) {
	const src = `package p

//dvc:hotpath
func unjustified(b []byte) []byte {
	//lint:allow noalloc
	return append(b, 1)
}

//dvc:hotpath
func justified(b []byte) []byte {
	//lint:allow noalloc amortized growth, measured in the slab benchmark
	return append(b, 2)
}

//dvc:hotpath
func stale(n int) int {
	//lint:allow noalloc nothing on this line allocates
	return n + 1
}

func unknown(n int) int {
	//lint:allow nosuchanalyzer it does not exist
	return n
}
`
	pkg := loadSource(t, src)
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{analysis.NoAlloc})
	if err != nil {
		t.Fatal(err)
	}
	byAnalyzer := map[string][]string{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], d.Message+" @"+pos.String())
	}
	// The unjustified allow must not suppress: exactly one noalloc
	// finding survives (justified's append is suppressed).
	if got := len(byAnalyzer["noalloc"]); got != 1 {
		t.Fatalf("noalloc findings = %d, want 1 (unjustified allow must not suppress)\nall: %v", got, byAnalyzer)
	}
	if !strings.Contains(byAnalyzer["noalloc"][0], "append") {
		t.Fatalf("surviving noalloc finding = %v", byAnalyzer["noalloc"])
	}
	// Directive vetting: missing justification, stale, unknown name.
	joined := strings.Join(byAnalyzer[analysis.DirectiveAnalyzer], "\n")
	for _, want := range []string{"no justification", "stale suppression", "unknown analyzer"} {
		if !strings.Contains(joined, want) {
			t.Errorf("lintdirective diagnostics missing %q:\n%s", want, joined)
		}
	}
	if got := len(byAnalyzer[analysis.DirectiveAnalyzer]); got != 3 {
		t.Errorf("lintdirective findings = %d, want 3:\n%s", got, joined)
	}
}
