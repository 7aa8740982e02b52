package codegen_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"hash/fnv"
	"testing"

	"repro/internal/codegen"
	"repro/internal/fsm"
	"repro/internal/types"
)

// FuzzGenerateNames pins that Generate's output parses by construction
// (Generate itself does not parse it): arbitrary role and label names, and
// a sort bound to an arbitrary Go type and import path, either are refused
// with an error, by types.RegisterSort or by Generate, or yield a package
// go/parser accepts. The machines put the sort in every position the
// emitter spells one (a send's parameter, a receive's result and converter,
// a branch case, vec<S>) and the names in identifiers, string literals and
// comments. The seeds run in tier-1; make fuzz-smoke fuzzes the target.
func FuzzGenerateNames(f *testing.F) {
	for _, s := range [][6]string{
		{"a", "b", "x", "y", "big.Float", "math/big"},
		{"a", "b", "x", "y", "[][]float32", ""},
		{"a", "b", "x", "y", "types.Role", "repro/internal/types"},
		{"a", "b", "x", "y", "any", ""},
		{"a", "b", "x", "y", "struct{ X int \"*/\\n\" }", ""},
		{"a", "b", "x", "y", "int /* c */", ""},
		{"a\nb", "c\n", "x\n// y", "\ny", "int", ""},
		{"a\x00", "b\ufeff", "x\xff", "*/", "string", ""},
		{"\ufeffa", "b\xc3", "/*", "y\r\n", "int", ""},
		{"`a`", "\"b\"", "func", "type", "[]byte", ""},
		{"go", "package", "x y", "1+2", "int", ""},
		{"a", "b", "x", "y", "1+2", ""},
		{"a", "b", "x", "y", "int; func", ""},
		{"a", "b", "x", "y", "int\n", ""},
		{"a", "b", "x", "y", "int // c", ""},
		{"a", "b", "x", "y", "[]", ""},
		{"a", "b", "x", "y", "map[int", ""},
		{"a", "b", "x", "y", "`x`", ""},
		{"a", "b", "x", "y", "\"x\"", ""},
		{"a", "b", "x", "y", "func", ""},
		{"a", "b", "x", "y", "mypkg.Blob", "a b"},
		{"a", "b", "x", "y", "mypkg.Blob", "a\"b"},
		{"a", "b", "x", "y", "mypkg.Blob", "a\nb"},
		{"a", "b", "x", "y", "mypkg.Blob", "a\xffb"},
		{"a", "a", "x", "y", "int", ""},
		{"a", "b", "x", "x", "int", ""},
		{"", "", "", "", "", ""},
		{"a", "", "x", "", "int", ""},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5])
	}
	f.Fuzz(func(t *testing.T, roleA, roleB, label1, label2, goType, imp string) {
		// The registry is add-only and process-wide: one sort name per
		// binding keeps a repeated binding idempotent. A refused binding
		// (or a hash collision) leaves the names fuzzed over a built-in.
		h := fnv.New64a()
		h.Write([]byte(goType + "\x00" + imp))
		s := types.Sort(fmt.Sprintf("fuzzsort%x", h.Sum64()))
		if err := types.RegisterSort(types.SortInfo{Name: s, Go: goType, Import: imp}); err != nil {
			s = types.Str
		}
		a, b := types.Role(roleA), types.Role(roleB)
		l1, l2 := types.Label(label1), types.Label(label2)
		vec := types.VecOf(s)
		one := func(peer types.Role, send bool, l types.Label, s types.Sort, cont types.Local) types.Local {
			br := []types.Branch{{Label: l, Sort: s, Cont: cont}}
			if send {
				return types.Send{Peer: peer, Branches: br}
			}
			return types.Recv{Peer: peer, Branches: br}
		}
		// a: b!l1(S). b?l2(vec<S>). b?{l1(S).end, l2(vec<S>).end}, and b
		// its dual, whose last choice is a two-way send.
		choice := []types.Branch{{Label: l1, Sort: s, Cont: types.End{}}, {Label: l2, Sort: vec, Cont: types.End{}}}
		locals := map[types.Role]types.Local{
			a: one(b, true, l1, s, one(b, false, l2, vec, types.Recv{Peer: b, Branches: choice})),
			b: one(a, false, l1, s, one(a, true, l2, vec, types.Send{Peer: a, Branches: choice})),
		}
		fsms := map[types.Role]*fsm.FSM{}
		for r, l := range locals {
			m, err := fsm.FromLocal(r, l)
			if err != nil {
				return
			}
			fsms[r] = m
		}
		src, err := codegen.Generate(roleA+"/"+label1, fsms, codegen.Options{Package: "p"})
		if err != nil {
			return
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution); err != nil {
			t.Fatalf("generated source does not parse: %v\n%s", err, src)
		}
	})
}
