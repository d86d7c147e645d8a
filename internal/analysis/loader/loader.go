// Package loader turns Go package patterns into type-checked
// analysis.Packages without any dependency outside the standard library.
//
// The usual way to drive analyzers is golang.org/x/tools/go/packages;
// this module is deliberately dependency-free, so the loader re-creates
// the essential subset: it shells out to `go list -deps -export -json`,
// which both describes the package graph and compiles export data for
// every dependency into the build cache, then parses the target packages
// from source and type-checks them with go/types, resolving imports
// through the export data via go/importer's lookup hook.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dvc/internal/analysis"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns (in dir), type-checks the
// non-dependency ones from source, and returns them in a deterministic
// (import-path sorted by `go list`) order.
func Load(dir string, patterns ...string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*analysis.Package
	for _, p := range targets {
		pkg, err := typeCheck(fset, imp, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks the Go files in dir as one package named pkgPath.
// It serves directories `go list` does not see as packages: the analyzer
// fixtures under testdata. Only tests call it: internal/analysis's
// analyzer tests load their fixtures with it. The fixtures' imports
// (standard library or this module's packages) resolve through export
// data exactly as in Load.
func LoadDir(dir, pkgPath string) (*analysis.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &listPackage{ImportPath: pkgPath, Dir: dir}
	importSet := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		p.GoFiles = append(p.GoFiles, e.Name())
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil {
				importSet[path] = true
			}
		}
	}
	if len(p.GoFiles) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		imports := make([]string, 0, len(importSet))
		for path := range importSet {
			imports = append(imports, path)
		}
		sort.Strings(imports)
		if _, exports, err = goList(dir, imports); err != nil {
			return nil, err
		}
	}
	fset := token.NewFileSet()
	return typeCheck(fset, exportImporter(fset, exports), p)
}

// exportImporter resolves every import through the export data that
// `go list -export` wrote into the build cache.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q (not a dependency of the lint targets?)", path)
		}
		return os.Open(file)
	})
}

// goList runs `go list -deps -export -json` and splits the result into
// the target packages (named by the patterns) and an export-data index
// covering the whole dependency graph.
func goList(dir string, patterns []string) ([]*listPackage, map[string]string, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var targets []*listPackage
	exports := make(map[string]string)
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p listPackage
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pp := p
			targets = append(targets, &pp)
		}
	}
	return targets, exports, nil
}

// typeCheck parses a package's (non-test) files and runs go/types over
// them.
func typeCheck(fset *token.FileSet, imp types.Importer, p *listPackage) (*analysis.Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		files = append(files, f)
	}
	info := analysis.NewInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) {}, // collect via the returned error below
	}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	return &analysis.Package{
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// ModuleRoot locates the directory containing go.mod starting from dir,
// so dvclint and tests can run `go list` from the module root regardless
// of the working directory.
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (go env GOMOD is empty)")
	}
	return filepath.Dir(gomod), nil
}
