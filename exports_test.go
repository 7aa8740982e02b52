package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedExports fails on any exported top-level function
// declared in a non-test file under internal/ whose name no identifier
// outside its own declaration uses anywhere in the module: an API nothing
// calls, not even its tests, is dead code and gets deleted. perfbench (its
// own module) and hidden directories such as .bench_build (build output) and
// .git are not scanned.
//
// Matching is by name alone: a use of a method, field or another package's
// function with the same name counts, so a dead export that shares its name
// is let through. It never reports a function something references.
func TestNoUnreferencedExports(t *testing.T) {
	dead, err := unreferencedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("%s: exported function nothing references; delete it", d)
	}
}

// unreferencedExports scans the module rooted at root and returns
// "path:line: Name" for each unreferenced exported function, sorted.
func unreferencedExports(root string) ([]string, error) {
	type candidate struct {
		decl *ast.FuncDecl
		pos  string
	}
	fset := token.NewFileSet()
	uses := map[string]int{}
	var candidates []candidate
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "perfbench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		slash := filepath.ToSlash(path)
		if !strings.HasPrefix(slash, "internal/") || strings.HasSuffix(slash, "_test.go") {
			return nil
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				p := fset.Position(fn.Pos())
				candidates = append(candidates, candidate{fn, fmt.Sprintf("%s:%d", slash, p.Line)})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	for _, c := range candidates {
		name := c.decl.Name.Name
		// The declaration's own name and any recursive calls in its body
		// are not uses.
		self := 0
		ast.Inspect(c.decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				self++
			}
			return true
		})
		if uses[name] == self {
			dead = append(dead, c.pos+": "+name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}
