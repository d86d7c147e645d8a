package analysis

import (
	"go/ast"
	"strings"
)

// Source directives recognised by the suite. They use the standard Go
// tool-directive shape (no space after //, tool:name), so gofmt leaves
// them alone and they never render as doc text.
const (
	// HotPathDirective marks a function as part of a zero-allocation hot
	// path. The noalloc analyzer flags allocating constructs inside it:
	//
	//	//dvc:hotpath
	//	func (k *Kernel) Step() bool { ... }
	HotPathDirective = "dvc:hotpath"

	// CheckpointRootDirective marks a type as a checkpoint root: the
	// snapshotstate analyzer computes the full reachability closure of
	// its field graph and holds every reachable field to the image
	// codec's round-trip rules, and dvclint emits the closure as
	// STATE_MANIFEST.txt:
	//
	//	//dvc:checkpoint-root
	//	type Snapshot struct { ... }
	CheckpointRootDirective = "dvc:checkpoint-root"
)

// hasDirective reports whether the comment group contains the directive
// as its own line (`//dvc:hotpath`, optionally followed by free text
// after a space).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}
