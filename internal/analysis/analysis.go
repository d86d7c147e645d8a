// Package analysis is dvclint's determinism lint suite for the DVC
// reproduction.
//
// The simulation kernel (internal/sim) promises that a run with a fixed
// seed is reproducible bit for bit. That promise is only as strong as the
// conventions the rest of the tree follows: virtual time instead of the
// host clock, explicit *rand.Rand plumbing instead of the global source,
// sorted map iteration wherever order can leak into event scheduling or
// output, no hidden concurrency inside the deterministic core, and
// codec-safe checkpoint state. This package turns each convention into a
// static analyzer:
//
//	nowallclock   - no time.Now/Sleep/After/... inside simulation packages
//	noglobalrand  - no package-level math/rand (rand.Intn, rand.Seed, ...)
//	mapiter       - no effectful iteration over maps in unspecified order
//	noconcurrency - no goroutines/channels/sync in the deterministic core
//	snapshotstate - no checkpoint field the image codec would reject,
//	                anywhere reachable from //dvc:checkpoint-root types and
//	                imgcodec payloads; also generates the committed
//	                STATE_MANIFEST.txt golden file
//	noalloc       - no allocating constructs in //dvc:hotpath functions
//	fleetscope    - fleet worker closures must not capture kernel state
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic, analysistest-style fixtures, run by this
// package's tests) but is self-contained on the standard library so the
// module stays dependency-free. Type information comes from go/types; package loading
// (cmd/dvclint, internal/analysis/loader) resolves imports through the
// build cache's export data via `go list -export`.
//
// # Suppression
//
// A finding can be waived with a justification comment on the flagged
// line or the line immediately above it:
//
//	//lint:allow <analyzer>[,<analyzer>...] <why this is safe>
//
// The <why> text is mandatory: an unjustified directive does not suppress
// and is itself reported, as are directives naming unknown analyzers and
// stale directives that no longer suppress anything (all under the
// pseudo-analyzer "lintdirective"). Suppressions are meant to be rare and
// auditable; grep for lint:allow.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. It mirrors the x/tools analysis.Analyzer
// shape so the checks could be ported onto the real driver verbatim if
// the dependency ever becomes available.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run performs the check over a single package and reports findings
	// through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Files    []*ast.File
	// TypesInfo has Types, Defs, Uses and Selections populated.
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package bundles the inputs shared by every analyzer run over one
// package. internal/analysis/loader constructs it.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with all the maps analyzers rely on
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Run executes the analyzers over the package, filters findings through
// the //lint:allow directives found in the sources, deduplicates, and
// returns the surviving diagnostics sorted by position.
//
// The directives themselves are vetted too, under the pseudo-analyzer
// name DirectiveAnalyzer: a suppression without a justification does not
// suppress and is reported, as is one naming an unknown analyzer, and a
// justified suppression that suppressed nothing (relative to the
// analyzers that actually ran) is reported as stale.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Files:     pkg.Files,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
		}
	}
	allows := collectAllows(pkg.Fset, pkg.Files)
	out := diags[:0]
	seen := make(map[string]bool)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if allows.allowed(d.Analyzer, pos) {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d:%s:%s", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	out = append(out, allows.vet(ran)...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	pos       token.Pos
	names     []string // analyzer names (or "all")
	justified bool     // non-empty <why> text followed the names
	used      bool     // suppressed at least one diagnostic this run
}

// allowSet indexes the directives by file and line for suppression
// lookup, keeping the full list for directive vetting.
type allowSet struct {
	byLine map[string]map[int][]*allowDirective
	list   []*allowDirective
}

// AllowDirective is the comment prefix of a suppression.
const AllowDirective = "lint:allow"

// DirectiveAnalyzer is the pseudo-analyzer name under which malformed,
// unknown-name and stale //lint:allow directives are reported. It is not
// itself suppressible: the directive checks exist to keep the
// suppression inventory auditable.
const DirectiveAnalyzer = "lintdirective"

func collectAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	set := &allowSet{byLine: make(map[string]map[int][]*allowDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, AllowDirective) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, AllowDirective))
				fields := strings.Fields(rest)
				d := &allowDirective{pos: c.Pos(), justified: len(fields) >= 2}
				if len(fields) > 0 {
					for _, name := range strings.Split(fields[0], ",") {
						if name != "" {
							d.names = append(d.names, name)
						}
					}
				}
				set.list = append(set.list, d)
				pos := fset.Position(c.Pos())
				byLine := set.byLine[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*allowDirective)
					set.byLine[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
			}
		}
	}
	return set
}

// allowed reports whether a diagnostic from the named analyzer at pos is
// suppressed: a justified allow directive counts when it sits on the
// same line (trailing comment) or on the line immediately above the
// finding. An unjustified directive never suppresses.
func (s *allowSet) allowed(analyzer string, pos token.Position) bool {
	byLine := s.byLine[pos.Filename]
	if byLine == nil {
		return false
	}
	ok := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if !d.justified {
				continue
			}
			for _, name := range d.names {
				if name == analyzer || name == "all" {
					d.used = true
					ok = true
				}
			}
		}
	}
	return ok
}

// vet turns directive problems into diagnostics: missing justification,
// unknown analyzer names, and justified suppressions that suppressed
// nothing (judged only against the analyzers that ran, so a partial
// -run invocation never misreports staleness).
func (s *allowSet) vet(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{Pos: pos, Analyzer: DirectiveAnalyzer, Message: fmt.Sprintf(format, args...)})
	}
	for _, d := range s.list {
		if len(d.names) == 0 {
			report(d.pos, "malformed suppression: //lint:allow needs an analyzer list and a justification (//lint:allow <analyzer>[,<analyzer>] <why this is safe>)")
			continue
		}
		for _, name := range d.names {
			if name != "all" && ByName(name) == nil {
				report(d.pos, "suppression names unknown analyzer %q (run dvclint -list for the suite)", name)
			}
		}
		if !d.justified {
			report(d.pos, "suppression of %s has no justification: every //lint:allow must say why the pattern is safe (//lint:allow %s <why>)",
				strings.Join(d.names, ","), strings.Join(d.names, ","))
			continue
		}
		if d.used {
			continue
		}
		// Stale only when every named analyzer actually ran. An "all"
		// directive is never judged: any analyzer outside this run could
		// be its reason for existing (one more reason to prefer naming
		// analyzers explicitly).
		judgeable := true
		for _, name := range d.names {
			if name == "all" || !ran[name] {
				judgeable = false
			}
		}
		if judgeable {
			report(d.pos, "stale suppression: //lint:allow %s matches no finding on this line; delete it",
				strings.Join(d.names, ","))
		}
	}
	return out
}

// --- shared helpers used by several analyzers ---

// pkgFunc reports whether expr is a direct reference to a package-level
// function or other object of the package with the given import path
// (e.g. time.Now, rand.Intn), returning its name.
func pkgObject(info *types.Info, expr ast.Expr, pkgPath string) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// isConversion reports whether call is a type conversion rather than a
// function call.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// builtinName returns the name of the builtin being called ("append",
// "len", ...) or "" if the callee is not a builtin.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return ""
	}
	return id.Name
}
