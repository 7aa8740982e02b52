package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedExports fails on any exported func, method, type, var
// or const declared in a non-test file under internal/ that no non-test
// file uses: nothing calls it, so it is dead, or only tests call it, so it
// belongs in a _test.go file. Callers are the non-test files of the whole
// module (cmd/, examples/, internal/) and of the perfbench module.
//
// Every package is type-checked from source in one go/types universe, so a
// use is an identifier resolved to the declared object, not a name match.
// A method also counts as used when a non-test type whose method set
// holds it implements an interface non-test code uses (named, anonymous,
// or exported by a standard-library package), other than the interface
// that declares it. A declaration that must stay anyway says why in its
// doc comment with a `//repro:keep <reason>` line.
func TestNoUnreferencedExports(t *testing.T) {
	findings, err := unusedExports(".", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestExportGuardPlants runs the guard over testdata/exportguard, a module
// with one export only its test calls, one dead method, and one keep
// directive without a reason, and expects exactly those three findings.
func TestExportGuardPlants(t *testing.T) {
	findings, err := unusedExports("testdata/exportguard")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/plant/plant.go:5: plant.TestOnly: only tests use it; move it into a _test.go file",
		"internal/plant/plant.go:11: plant.T.Dead: nothing uses it; delete it",
		"internal/plant/plant.go:19: plant.NoReason: //repro:keep needs a reason",
	}
	if strings.Join(findings, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(findings, "\n"), strings.Join(want, "\n"))
	}
}

// exportGuard type-checks a set of modules from source. The non-test
// files of every package form one go/types universe (info), the one every
// package imports; each package's test variants (with its in-package test
// files, and its external _test package) are checked against it
// separately (testInfo), as go test builds them.
type exportGuard struct {
	fset     *token.FileSet
	info     *types.Info
	testInfo *types.Info
	build    map[string]*build.Package // module import path -> its files
	pkgs     map[string]*types.Package // checked non-test packages
	files    map[string][]*ast.File    // their parsed non-test files
	busy     map[string]bool           // being checked
	std      types.Importer            // everything else, from export data
	stdPkgs  []*types.Package          // the non-module packages imported
}

// candidate is one exported declaration under internal/.
type candidate struct {
	name    string
	pos     token.Pos
	spans   []ast.Node // the declaration itself; uses inside do not count
	keep    string     // the //repro:keep line, if any
	used    bool       // by a non-test file
	usedByT bool       // by a _test.go file
}

// unusedExports runs the guard over the module rooted at roots[0], with
// the modules at the other roots (relative to the first) as extra callers,
// and returns one finding per line, sorted by position, with paths
// relative to roots[0].
func unusedExports(roots ...string) ([]string, error) {
	g := &exportGuard{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		testInfo: &types.Info{Uses: map[*ast.Ident]types.Object{}},
		build:    map[string]*build.Package{},
		pkgs:     map[string]*types.Package{},
		files:    map[string][]*ast.File{},
		busy:     map[string]bool{},
	}
	for i, root := range roots {
		if i > 0 {
			root = filepath.Join(roots[0], root)
		}
		if err := g.scan(root); err != nil {
			return nil, err
		}
	}
	if err := g.loadStd(roots[0]); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(g.build))
	for path := range g.build {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := g.check(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		bp := g.build[path]
		v := &variant{g: g, of: path, pkgs: map[string]*types.Package{}}
		if len(bp.TestGoFiles) > 0 {
			tf, err := g.parse(bp.Dir, bp.TestGoFiles)
			if err != nil {
				return nil, err
			}
			conf := types.Config{Importer: g}
			if v.pkgs[path], err = conf.Check(path, g.fset, append(tf, g.files[path]...), g.testInfo); err != nil {
				return nil, err
			}
		}
		if len(bp.XTestGoFiles) > 0 {
			xf, err := g.parse(bp.Dir, bp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			conf := types.Config{Importer: v}
			if _, err := conf.Check(path+"_test", g.fset, xf, g.testInfo); err != nil {
				return nil, err
			}
		}
	}

	cands := g.candidates(filepath.Join(roots[0], "internal"))
	for id, obj := range g.info.Uses {
		if c := cands[origin(obj).Pos()]; c != nil && !c.inside(id.Pos()) {
			c.used = true
		}
	}
	for id, obj := range g.testInfo.Uses {
		if c := cands[origin(obj).Pos()]; c != nil && g.isTest(id.Pos()) {
			c.usedByT = true
		}
	}
	for pos := range g.interfaceUsedMethods() {
		if c := cands[pos]; c != nil {
			c.used = true
		}
	}

	var found []*candidate
	for _, c := range cands {
		found = append(found, c)
	}
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	var findings []string
	for _, c := range found {
		var why string
		switch {
		case c.keep != "" && strings.TrimSpace(strings.TrimPrefix(c.keep, "//repro:keep")) == "":
			why = "//repro:keep needs a reason"
		case c.keep != "" || c.used:
			continue
		case c.usedByT:
			why = "only tests use it; move it into a _test.go file"
		default:
			why = "nothing uses it; delete it"
		}
		p := g.fset.Position(c.pos)
		rel, err := filepath.Rel(roots[0], p.Filename)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fmt.Sprintf("%s:%d: %s: %s", filepath.ToSlash(rel), p.Line, c.name, why))
	}
	return findings, nil
}

// scan records every package directory of the module rooted at root. It
// skips testdata, hidden and underscore directories and nested modules.
func (g *exportGuard) scan(root string) error {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
		}
	}
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		g.build[path] = bp
		return nil
	})
}

// loadStd resolves every import outside the scanned modules to gc export
// data with one `go list -export` run.
func (g *exportGuard) loadStd(dir string) error {
	seen := map[string]bool{}
	var paths []string
	for _, bp := range g.build {
		for _, imps := range [][]string{bp.Imports, bp.TestImports, bp.XTestImports} {
			for _, p := range imps {
				if g.build[p] == nil && p != "unsafe" && !seen[p] {
					seen[p] = true
					paths = append(paths, p)
				}
			}
		}
	}
	exports := map[string]string{}
	if len(paths) > 0 {
		cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json=ImportPath,Export", "--"}, paths...)...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go list -export: %v\n%s", err, stderr.String())
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			exports[p.ImportPath] = p.Export
		}
	}
	g.std = importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	return nil
}

// Import serves module packages from source and the rest from export data.
func (g *exportGuard) Import(path string) (*types.Package, error) {
	if g.build[path] != nil {
		return g.check(path)
	}
	pkg, err := g.std.Import(path)
	if err == nil {
		g.stdPkgs = append(g.stdPkgs, pkg)
	}
	return pkg, err
}

// check type-checks a module package's non-test files, once.
func (g *exportGuard) check(path string) (*types.Package, error) {
	if pkg := g.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	if g.busy[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	g.busy[path] = true
	bp := g.build[path]
	files, err := g.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: g}
	pkg, err := conf.Check(path, g.fset, files, g.info)
	if err != nil {
		return nil, err
	}
	g.pkgs[path], g.files[path] = pkg, files
	return pkg, nil
}

// variant imports for the external tests of package of: of is its test
// variant, and each module package that imports it is rechecked against
// that variant, as go test builds them. Without in-package test files
// every import is the shared universe's.
type variant struct {
	g    *exportGuard
	of   string
	pkgs map[string]*types.Package
}

func (v *variant) Import(path string) (*types.Package, error) {
	if pkg := v.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	if v.pkgs[v.of] == nil || v.g.pkgs[path] == nil || !imports(v.g.pkgs[path], v.of) {
		return v.g.Import(path)
	}
	conf := types.Config{Importer: v}
	pkg, err := conf.Check(path, v.g.fset, v.g.files[path], v.g.testInfo)
	v.pkgs[path] = pkg
	return pkg, err
}

// imports reports whether pkg imports path, directly or not.
func imports(pkg *types.Package, path string) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || imports(imp, path) {
			return true
		}
	}
	return false
}

func (g *exportGuard) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(g.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (g *exportGuard) isTest(pos token.Pos) bool {
	return strings.HasSuffix(g.fset.File(pos).Name(), "_test.go")
}

// candidates collects the exported declarations in the non-test files
// under dir, keyed by the position of their name.
func (g *exportGuard) candidates(dir string) map[token.Pos]*candidate {
	dir += string(filepath.Separator)
	cands := map[token.Pos]*candidate{}
	add := func(id *ast.Ident, name string, span ast.Node, docs ...*ast.CommentGroup) {
		if !id.IsExported() {
			return
		}
		c := &candidate{name: name, pos: id.Pos(), spans: []ast.Node{span}}
		for _, doc := range docs {
			if doc == nil {
				continue
			}
			for _, line := range doc.List {
				if strings.HasPrefix(line.Text, "//repro:keep") {
					c.keep = line.Text
				}
			}
		}
		cands[id.Pos()] = c
	}
	recvName := func(d *ast.FuncDecl) *types.TypeName {
		recv := g.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		return recv.(*types.Named).Obj()
	}
	var methods []*ast.FuncDecl
	for path, files := range g.files {
		if !strings.HasPrefix(g.build[path].Dir+string(filepath.Separator), dir) {
			continue
		}
		for _, f := range files {
			pkg := f.Name.Name + "."
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, pkg+d.Name.Name, d, d.Doc)
						continue
					}
					methods = append(methods, d)
					add(d.Name, pkg+recvName(d).Name()+"."+d.Name.Name, d, d.Doc)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, pkg+s.Name.Name, s, d.Doc, s.Doc)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, id := range m.Names {
										add(id, pkg+s.Name.Name+"."+id.Name, m, m.Doc)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, pkg+id.Name, s, d.Doc, s.Doc)
							}
						}
					}
				}
			}
		}
	}
	// A type's own methods do not use it.
	for _, d := range methods {
		if c := cands[recvName(d).Pos()]; c != nil {
			c.spans = append(c.spans, d)
		}
	}
	return cands
}

func (c *candidate) inside(pos token.Pos) bool {
	for _, s := range c.spans {
		if s.Pos() <= pos && pos < s.End() {
			return true
		}
	}
	return false
}

// interfaceUsedMethods returns the positions of the methods reached
// through an interface: for every named type whose method set satisfies an
// interface the non-test code uses, the methods that interface names,
// unless the interface itself declares them.
func (g *exportGuard) interfaceUsedMethods() map[token.Pos]bool {
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[t] {
			seen[t] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, tv := range g.info.Types {
		if tv.Type != nil {
			addIface(tv.Type)
		}
	}
	for _, pkg := range g.stdPkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
	}
	used := map[token.Pos]bool{}
	for _, obj := range g.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		var t types.Type = named
		if !types.IsInterface(named) {
			t = types.NewPointer(named)
		}
		ms := types.NewMethodSet(t)
		for _, it := range ifaces {
			if !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil && sel.Obj() != m {
					used[origin(sel.Obj()).Pos()] = true
				}
			}
		}
	}
	return used
}

// origin maps an instantiated generic method or function to its
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}
