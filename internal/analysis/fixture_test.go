package analysis_test

// Fixture runner: an analyzer runs over a fixture package under
// testdata/src and its diagnostics are checked against `// want`
// expectations, as golang.org/x/tools/go/analysis/analysistest does, on
// the standard library only.
//
// Expectation syntax (a trailing comment on the flagged line):
//
//	x := time.Now() // want `wall clock`
//	a, b := f(), g() // want `first` `second`
//
// Each backquoted or double-quoted string is a regexp that must match one
// diagnostic reported on that line, in column order; lines without a
// want comment must produce no diagnostics. //lint:allow suppression is
// applied before matching, so fixtures can (and do) test the escape
// hatch by expecting nothing on an allowed line.

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dvc/internal/analysis"
	"dvc/internal/analysis/loader"
)

// runFixture loads testdata/src/<pkg> (relative to the test's working
// directory), applies the analyzer, and reports mismatches against the
// // want comments through t.
func runFixture(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	p, err := loader.LoadDir(filepath.Join("testdata", "src", pkg), pkg)
	if err != nil {
		t.Fatalf("fixture %s: %v", pkg, err)
	}
	diags, err := analysis.Run(p, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("fixture %s: %v", pkg, err)
	}
	checkWants(t, p.Fset, p.Files, diags)
}

type wantKey struct {
	file string
	line int
}

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()

	// Group diagnostics by (file, line), keeping column order.
	got := make(map[wantKey][]analysis.Diagnostic)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := wantKey{pos.Filename, pos.Line}
		got[k] = append(got[k], d)
	}

	// Collect // want expectations.
	want := make(map[wantKey][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") && text != "want" {
					continue
				}
				pos := fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				for _, pat := range parseWants(t, pos, strings.TrimPrefix(text, "want")) {
					want[k] = append(want[k], pat)
				}
			}
		}
	}

	// Every line with expectations must match; every diagnostic must be
	// expected.
	var lines []wantKey
	seen := make(map[wantKey]bool)
	for k := range want {
		if !seen[k] {
			seen[k] = true
			lines = append(lines, k)
		}
	}
	for k := range got {
		if !seen[k] {
			seen[k] = true
			lines = append(lines, k)
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].file != lines[j].file {
			return lines[i].file < lines[j].file
		}
		return lines[i].line < lines[j].line
	})

	for _, k := range lines {
		ds, ws := got[k], want[k]
		if len(ds) != len(ws) {
			var msgs []string
			for _, d := range ds {
				msgs = append(msgs, fmt.Sprintf("%s: %s", d.Analyzer, d.Message))
			}
			t.Errorf("%s:%d: got %d diagnostic(s), want %d\n  got: %s",
				k.file, k.line, len(ds), len(ws), strings.Join(msgs, "\n       "))
			continue
		}
		for i, w := range ws {
			if !w.MatchString(ds[i].Message) {
				t.Errorf("%s:%d: diagnostic %q does not match want %q",
					k.file, k.line, ds[i].Message, w)
			}
		}
	}
}

// parseWants extracts the quoted regexps from the text after "want".
func parseWants(t *testing.T, pos token.Position, text string) []*regexp.Regexp {
	t.Helper()
	var pats []*regexp.Regexp
	for {
		text = strings.TrimSpace(text)
		if text == "" {
			break
		}
		var raw string
		switch text[0] {
		case '`':
			end := strings.IndexByte(text[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated backquote in want comment", pos)
			}
			raw = text[1 : 1+end]
			text = text[2+end:]
		case '"':
			var err error
			var rest int
			for rest = 1; rest < len(text); rest++ {
				if text[rest] == '"' && text[rest-1] != '\\' {
					break
				}
			}
			if rest == len(text) {
				t.Fatalf("%s: unterminated quote in want comment", pos)
			}
			raw, err = strconv.Unquote(text[:rest+1])
			if err != nil {
				t.Fatalf("%s: bad want string: %v", pos, err)
			}
			text = text[rest+1:]
		default:
			t.Fatalf("%s: want expectations must be quoted or backquoted regexps, got %q", pos, text)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
		}
		pats = append(pats, re)
	}
	return pats
}
