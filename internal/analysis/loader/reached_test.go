package loader_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dvc/internal/analysis/loader"
)

// The cases a function may fall under and still never run.
const (
	errorPath    = "error path"
	hostileInput = "hostile-input guard"
	ifaceMethod  = "Stringer or interface method"
	codecKind    = "codec kind"
	testHook     = "shared test hook" // must be keptExports' test hook too
)

// keptUnreached are the non-test functions that no recorded run (see
// TestEveryFunctionRuns) executes, each with the case it falls under.
// Keys are keptExports' keys.
var keptUnreached = map[string]string{
	"dvc/internal/clock.Clock.Error":       testHook,
	"dvc/internal/fleet.trialPanic.Error":  ifaceMethod,
	"dvc/internal/imgcodec.decoder.fail":   errorPath,
	"dvc/internal/imgcodec.encoder.fail":   errorPath,
	"dvc/internal/imgcodec.encFloat64":     codecKind,
	"dvc/internal/imgcodec.encRope":        codecKind,
	"dvc/internal/imgcodec.decRope":        codecKind,
	"dvc/internal/netsim.Fabric.Delay":     testHook,
	"dvc/internal/obs.memSink.Flush":       ifaceMethod,
	"dvc/internal/obs.SummarySink.Flush":   ifaceMethod,
	"dvc/internal/payload.Bytes.AppendTo":  codecKind,
	"dvc/internal/payload.Bytes.Equal":     testHook,
	"dvc/internal/payload.Bytes.String":    ifaceMethod,
	"dvc/internal/rm.Backend.String":       ifaceMethod,
	"dvc/internal/rm.JobState.String":      ifaceMethod,
	"dvc/internal/script.Interpreter.errf": errorPath,
	"dvc/internal/sim.Kernel.Pending":      testHook,
	"dvc/internal/sim.Kernel.SlabLen":      testHook,
	"dvc/internal/sim.Kernel.Run":          testHook,
	"dvc/internal/tcp.State.String":        ifaceMethod,
	"dvc/internal/tcp.Flags.String":        ifaceMethod,
	"dvc/internal/tcp.Segment.String":      ifaceMethod,
}

// TestEveryFunctionRuns is the dynamic twin of
// TestEveryExportHasANonTestCaller. It reads the per-function coverage
// (`go tool cover -func` output) of coverage-built front ends run over
// the paper's experiments, scenarios and benchmark workloads, from the
// file named by DVC_FUNC_COVERAGE; CI's reached-code job records it. It
// fails on every non-test function that never ran, unless keptUnreached
// lists it with a reason, and on every stale keptUnreached entry. A
// function with no statements counts as reached, and the root dvc
// facade, the public API, is skipped as in keptExports.
func TestEveryFunctionRuns(t *testing.T) {
	path := os.Getenv("DVC_FUNC_COVERAGE")
	if path == "" {
		t.Skip("DVC_FUNC_COVERAGE is unset: no recorded run to check")
	}
	root, err := loader.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	unreached, err := unreachedFuncs(root, path)
	if err != nil {
		t.Fatal(err)
	}
	never := map[string]bool{}
	for _, key := range unreached {
		never[key] = true
		if _, ok := keptUnreached[key]; !ok {
			t.Errorf("%s never runs: delete it, give it a run that needs it, or list it in keptUnreached", key)
		}
	}
	for key, reason := range keptUnreached {
		if !never[key] {
			t.Errorf("keptUnreached[%q] is stale: it runs or is gone", key)
		}
		switch reason {
		case errorPath, hostileInput, ifaceMethod, codecKind:
		case testHook:
			if keptExports[key] != testHook {
				t.Errorf("keptUnreached[%q] is a %s that keptExports does not name", key, testHook)
			}
		default:
			t.Errorf("keptUnreached[%q] has reason %q, not one of the allowed cases", key, reason)
		}
	}
}

// unreachedFuncs reads a `go tool cover -func` listing of the module
// rooted at root and returns the keys of the functions it reports at
// 0.0% that have statements, outside the root package.
func unreachedFuncs(root, path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || fields[2] != "0.0%" {
			continue
		}
		// fields[0] is "<import path>/<file>.go:<line>:".
		loc := strings.Split(strings.TrimSuffix(fields[0], ":"), ":")
		if len(loc) != 2 {
			continue
		}
		line, err := strconv.Atoi(loc[1])
		if err != nil {
			return nil, err
		}
		pkg := filepath.ToSlash(filepath.Dir(loc[0]))
		if pkg == "dvc" {
			continue
		}
		file := files[loc[0]]
		if file == nil {
			name := filepath.Join(root, strings.TrimPrefix(loc[0], "dvc/"))
			if file, err = parser.ParseFile(fset, name, nil, 0); err != nil {
				return nil, err
			}
			files[loc[0]] = file
		}
		fd := funcAt(fset, file, line)
		if fd == nil {
			return nil, fmt.Errorf("%s: no function declared there; was %s recorded from this tree?", fields[0], path)
		}
		if fd.Body == nil || len(fd.Body.List) == 0 {
			continue
		}
		out = append(out, pkg+"."+funcName(fd))
	}
	return out, sc.Err()
}

// funcAt returns the function declared at line of file.
func funcAt(fset *token.FileSet, file *ast.File, line int) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fset.Position(fd.Pos()).Line == line {
			return fd
		}
	}
	return nil
}

// funcName is a declaration's name, prefixed by its receiver's type name
// for a method, as in keptExports' keys.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	return types.ExprString(t) + "." + fd.Name.Name
}
