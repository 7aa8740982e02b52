package lint

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
	"strings"
	"sync"
)

// The loader type-checks packages from source with their dependencies
// resolved through gc export data, using nothing beyond the standard
// library and the go tool: `go list -json` enumerates source units and
// `go list -export` yields an export file per import path. This is what
// lets the standalone sessvet driver and the repo-wide clean gate run
// without golang.org/x/tools.

// Unit is one type-checked package ready for RunAnalyzers: either a
// package with its in-package test files, or the external _test package.
type Unit struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// exportResolver maps import paths to gc export files, caching `go list
// -export` lookups. Safe for one goroutine; the drivers are sequential.
type exportResolver struct {
	dir   string
	mu    sync.Mutex
	cache map[string]string // import path -> export file ("" = failed)
}

func newExportResolver(dir string) *exportResolver {
	return &exportResolver{dir: dir, cache: map[string]string{}}
}

type listExport struct {
	ImportPath string
	Export     string
	ImportMap  map[string]string
}

// warm batch-resolves the transitive dependencies of patterns in one go
// invocation so per-import lookups mostly hit the cache.
func (r *exportResolver) warm(patterns []string) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = r.dir
	out, err := cmd.Output()
	if err != nil {
		return // lazy lookups will surface real problems
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		var le listExport
		if err := dec.Decode(&le); err != nil {
			return
		}
		if le.Export != "" {
			r.cache[le.ImportPath] = le.Export
		}
	}
}

func (r *exportResolver) exportFile(path string) (string, error) {
	r.mu.Lock()
	f, ok := r.cache[path]
	r.mu.Unlock()
	if ok {
		if f == "" {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return f, nil
	}
	cmd := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "--", path)
	cmd.Dir = r.dir
	out, err := cmd.Output()
	file := ""
	if err == nil {
		var le listExport
		if jerr := json.Unmarshal(out, &le); jerr == nil {
			file = le.Export
		}
	}
	r.mu.Lock()
	r.cache[path] = file
	r.mu.Unlock()
	if file == "" {
		return "", fmt.Errorf("no export data for %q: %v", path, err)
	}
	return file, nil
}

// lookup is the gc importer's file source.
func (r *exportResolver) lookup(path string) (io.ReadCloser, error) {
	f, err := r.exportFile(path)
	if err != nil {
		return nil, err
	}
	return os.Open(f)
}

type listPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// Load type-checks the packages matching patterns (relative to dir, a
// directory inside the module) and returns one Unit per compiled variant:
// the package including its in-package tests, plus the external test
// package when present.
func Load(dir string, patterns ...string) ([]*Unit, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,Name,Standard,GoFiles,TestGoFiles,XTestGoFiles", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding: %v", err)
		}
		if !lp.Standard {
			pkgs = append(pkgs, &lp)
		}
	}

	resolver := newExportResolver(dir)
	resolver.warm(patterns)

	var units []*Unit
	for _, lp := range pkgs {
		if len(lp.GoFiles)+len(lp.TestGoFiles) > 0 {
			u, err := checkUnit(resolver.lookup, lp.Dir, lp.ImportPath,
				append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...))
			if err != nil {
				return nil, fmt.Errorf("%s: %v", lp.ImportPath, err)
			}
			units = append(units, u)
		}
		if len(lp.XTestGoFiles) > 0 {
			// External tests may use names the in-package test files
			// export (the export_test.go idiom), which only the package's
			// test variant declares.
			lookup, err := testVariantLookup(dir, lp.ImportPath)
			if err != nil {
				return nil, fmt.Errorf("%s external tests: %v", lp.ImportPath, err)
			}
			u, err := checkUnit(lookup, lp.Dir, lp.ImportPath+"_test", lp.XTestGoFiles)
			if err != nil {
				return nil, fmt.Errorf("%s external tests: %v", lp.ImportPath, err)
			}
			units = append(units, u)
		}
	}
	return units, nil
}

// testVariantLookup resolves the imports of pkgPath's external test package
// as go test builds them: pkgPath compiled with its in-package test files,
// and each dependency that imports pkgPath recompiled against that variant.
func testVariantLookup(dir, pkgPath string) (func(path string) (io.ReadCloser, error), error) {
	cmd := exec.Command("go", "list", "-test", "-export", "-deps", "-json=ImportPath,Export,ImportMap", "--", pkgPath)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	xtest := pkgPath + "_test [" + pkgPath + ".test]"
	exports := map[string]string{}
	var importMap map[string]string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var le listExport
		if err := dec.Decode(&le); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		exports[le.ImportPath] = le.Export
		if le.ImportPath == xtest {
			importMap = le.ImportMap
		}
	}
	return func(path string) (io.ReadCloser, error) {
		if variant, ok := importMap[path]; ok {
			path = variant
		}
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	}, nil
}

// checkUnit parses and type-checks one compilation unit from source,
// resolving imports to gc export data through lookup.
func checkUnit(lookup func(path string) (io.ReadCloser, error), dir, pkgPath string, fileNames []string) (*Unit, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := CheckFiles(fset, pkgPath, files, lookup)
	if err != nil {
		return nil, err
	}
	return &Unit{PkgPath: pkgPath, Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// CheckFiles type-checks one parsed compilation unit, resolving imports
// through lookup (an import path to gc export data source). Drivers with
// their own notion of where export files live — cmd/sessvet in `go vet
// -vettool` mode reads them from vet.cfg — build on this directly.
func CheckFiles(fset *token.FileSet, pkgPath string, files []*ast.File, lookup func(path string) (io.ReadCloser, error)) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// Run loads the packages matching patterns and runs the analyzers over
// every unit, returning the merged, sorted findings. This is the
// standalone driver used by `sessvet ./...` and the clean-tree tests.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Finding, error) {
	units, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, u := range units {
		fs, err := RunAnalyzers(u.Fset, u.Files, u.Pkg, u.Info, analyzers)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", u.PkgPath, err)
		}
		all = append(all, fs...)
	}
	sortFindings(all)
	return dedupe(all), nil
}
