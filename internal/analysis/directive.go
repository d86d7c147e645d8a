package analysis

import (
	"go/ast"
	"strings"
)

// HotPathDirective marks a function as part of a zero-allocation hot
// path. The noalloc analyzer flags allocating constructs inside it:
//
//	//dvc:hotpath
//	func (k *Kernel) Step() bool { ... }
//
// It uses the standard Go tool-directive shape (no space after //,
// tool:name), so gofmt leaves it alone and it never renders as doc text.
const HotPathDirective = "dvc:hotpath"

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
