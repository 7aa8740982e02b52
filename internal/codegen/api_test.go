package codegen_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/protocols"
)

// updateAPI is separate from -update on purpose: regenerating the goldens
// must not also rewrite the API they are checked against.
var updateAPI = flag.Bool("update-api", false, "rewrite the exported-API listings in testdata/api")

// checkedIn lists the examples/gen packages with the options recorded in
// their go:generate directives.
var checkedIn = []struct {
	protocol string
	pkg      string
	dir      string
	mode     codegen.Mode
}{
	{"streaming", "streaming", "streaming", codegen.ModeAuto},
	{"doublebuffering", "doublebuffer", "doublebuffer", codegen.ModePlain},
	{"ring", "ring", "ring", codegen.ModePlain},
	{"elevator", "elevator", "elevator", codegen.ModePlain},
	{"optimisedfft", "fft", "fft", codegen.ModeHand},
}

// TestGeneratedAPIUnchanged pins the exported API of the golden packages
// and of every examples/gen package: the declarations apiListing prints
// from the regenerated source must equal the committed listing, so a change
// to the emitted method bodies cannot move a type, method, signature, field
// or directive.
func TestGeneratedAPIUnchanged(t *testing.T) {
	fromEntry := func(entry, pkg string, mode codegen.Mode) func() ([]byte, error) {
		return func() ([]byte, error) {
			e, ok := protocols.Find(entry)
			if !ok {
				t.Fatalf("%s not in registry", entry)
			}
			return codegen.FromEntry(e, codegen.Options{Package: pkg, Mode: mode})
		}
	}
	fromScribble := func(src, pkg string) func() ([]byte, error) {
		return func() ([]byte, error) {
			return codegen.FromScribble(mustParse(src), codegen.Options{Package: pkg})
		}
	}
	cases := map[string]func() ([]byte, error){
		"twoadder": fromEntry("two adder", "twoadder", codegen.ModePlain),
		"auth":     fromEntry("authentication", "auth", codegen.ModePlain),
		"greeter":  fromScribble(greeterScr, "greeter"),
		"vecswap":  fromScribble(swapScr, "swap"),
	}
	for _, c := range checkedIn {
		cases["gen_"+c.dir] = fromEntry(c.protocol, c.pkg, c.mode)
	}
	for name, gen := range cases {
		t.Run(name, func(t *testing.T) {
			src, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			got, err := apiListing(src)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "api", name+".txt")
			if *updateAPI {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing API listing (run with -update-api): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("exported API of %s differs from %s:\n%s", name, path, got)
			}
		})
	}
}

// apiListing prints a generated package's exported declarations in source
// order: exported consts, types with their full type expression and
// //sessgen: directives, and exported functions and methods with their
// signatures. Bodies and comments are left out.
func apiListing(src []byte) ([]byte, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.WriteString("package " + f.Name.Name + "\n")
	print := func(prefix string, n ast.Node) error {
		b.WriteString(prefix)
		if err := printer.Fprint(&b, fset, n); err != nil {
			return err
		}
		b.WriteByte('\n')
		return nil
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					if s.Names[0].IsExported() {
						if err := print(d.Tok.String()+" ", s); err != nil {
							return nil, err
						}
					}
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if d.Doc != nil {
						for _, c := range d.Doc.List {
							if strings.HasPrefix(c.Text, "//sessgen:") {
								b.WriteString(c.Text + "\n")
							}
						}
					}
					if err := print("type "+s.Name.Name+" ", s.Type); err != nil {
						return nil, err
					}
				}
			}
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			sig := *d
			sig.Doc, sig.Body = nil, nil
			if err := print("", &sig); err != nil {
				return nil, err
			}
		}
	}
	return b.Bytes(), nil
}
