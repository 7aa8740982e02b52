package codegen_test

import (
	"bytes"
	"errors"
	"fmt"
	"go/format"
	"testing"

	"repro/internal/codegen"
	"repro/internal/fsm"
	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/protofuzz"
	"repro/internal/types"
)

// canonicalSeeds is how many protofuzz seeds TestGenerateIsGofmtCanonical
// runs through Generate on their plain projections.
const canonicalSeeds = 300

// TestGenerateIsGofmtCanonical pins that Generate's output is already in
// gofmt's canonical form, so running go/format over it would change
// nothing. The emitter writes that layout itself (aligned rows, one final
// newline) and re-prints nothing; this test is the only place go/format runs.
func TestGenerateIsGofmtCanonical(t *testing.T) {
	check := func(name string, src []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := format.Source(src)
		if err != nil {
			t.Fatalf("%s: gofmt: %v", name, err)
		}
		if !bytes.Equal(src, want) {
			t.Errorf("%s: output is not gofmt-canonical; gofmt gives:\n%s", name, want)
		}
	}
	for _, e := range protocols.Registry() {
		for _, m := range []codegen.Mode{codegen.ModePlain, codegen.ModeAuto, codegen.ModeHand} {
			if m == codegen.ModeHand && len(e.Optimised) == 0 {
				continue
			}
			src, err := codegen.FromEntry(e, codegen.Options{Package: "p", Mode: m})
			check(fmt.Sprintf("%s/%s", e.Name, m), src, err)
		}
	}

	// The golden protocols, under their golden package names.
	for _, c := range []struct{ entry, pkg string }{{"two adder", "twoadder"}, {"authentication", "auth"}} {
		e, _ := protocols.Find(c.entry)
		src, err := codegen.FromEntry(e, codegen.Options{Package: c.pkg})
		check(c.pkg, src, err)
	}
	for _, c := range []struct{ scr, pkg string }{{greeterScr, "greeter"}, {swapScr, "swap"}} {
		src, err := codegen.FromScribble(mustParse(c.scr), codegen.Options{Package: c.pkg})
		check(c.pkg, src, err)
	}

	// Role and label names whose rune counts order differently from their
	// byte counts: gofmt pads to rune widths.
	src, err := codegen.FromScribble(mustParse(`
global protocol Uni(role ä, role bcdefg) {
  vålue(vec<f64>) from ä to bcdefg;
  choice at ä {
    vålue(vec<f64>) from ä to bcdefg;
  } or {
    stöp() from ä to bcdefg;
  }
}`), codegen.Options{Package: "uni"})
	check("unicode", src, err)
	if !bytes.Contains(src, []byte("\tRoleÄ      types.Role")) {
		t.Errorf("unicode: role block not padded to rune width:\n%s", src)
	}

	// A caseless (CJK) role and label: the mangler prefixes X, and the
	// padding still counts runes.
	src, err = codegen.FromScribble(mustParse(`
global protocol Cjk(role 数, role b) {
  choice at 数 {
    值(i32) from 数 to b;
  } or {
    停() from 数 to b;
  }
}`), codegen.Options{Package: "cjk"})
	check("caseless", src, err)
	if !bytes.Contains(src, []byte("\tRoleX数 types.Role")) {
		t.Errorf("caseless: role block not padded to rune width:\n%s", src)
	}

	// A sort bound to a type from a package the API imports anyway: gofmt
	// lists that import once.
	if err := types.RegisterSort(types.SortInfo{Name: "peerrole", Go: "types.Role", Import: "repro/internal/types"}); err != nil {
		t.Fatal(err)
	}
	m := fsm.MustFromLocal("a", types.MustParse("b!x(peerrole).end"))
	src, err = codegen.Generate("p", map[types.Role]*fsm.FSM{"a": m}, codegen.Options{Package: "p"})
	check("shared import", src, err)

	generated := 0
	for seed := uint64(0); seed < canonicalSeeds; seed++ {
		g := protofuzz.Generate(protofuzz.Config{Seed: seed})
		locals, err := project.ProjectAll(g)
		if err != nil {
			continue // full merge rejects some well-formed globals
		}
		fsms := map[types.Role]*fsm.FSM{}
		for r, l := range locals {
			if fsms[r], err = fsm.FromLocal(r, l); err != nil {
				t.Fatalf("seed %d: machine for %s: %v", seed, r, err)
			}
		}
		src, err := codegen.Generate("fuzz", fsms, codegen.Options{Package: "fuzz"})
		if errors.Is(err, codegen.ErrIdentCollision) {
			continue
		}
		check(fmt.Sprintf("protofuzz seed %d", seed), src, err)
		generated++
	}
	if generated < canonicalSeeds/2 {
		t.Errorf("only %d of %d protofuzz seeds generated a package", generated, canonicalSeeds)
	}
}

// BenchmarkGenerate times Generate alone, machines built beforehand, on
// the examples/gen Streaming (auto-optimised) and FFT (hand-optimised)
// packages and on the depth-2 nested-choice system, whose branching
// receives exercise Branch emission. Its allocs/op is gated against
// BENCH_codegen.json, so a return of a whole-package re-print shows up as a
// regression.
func BenchmarkGenerate(b *testing.B) {
	type genCase struct {
		name, proto string
		mode        codegen.Mode
		fsms        map[types.Role]*fsm.FSM
	}
	fromEntry := func(name, entry string, mode codegen.Mode) genCase {
		e, ok := protocols.Find(entry)
		if !ok {
			b.Fatalf("%s not in registry", entry)
		}
		locals := e.AutoSystem()
		if mode == codegen.ModeHand {
			locals = e.System()
		}
		return genCase{name, e.Name, mode, protocols.FSMs(locals)}
	}
	nested := genCase{name: "NestedChoice", proto: "NestedChoice2", fsms: map[types.Role]*fsm.FSM{}}
	for _, m := range protocols.NestedChoiceSystem(2) {
		nested.fsms[m.Role()] = m
	}
	for _, c := range []genCase{
		fromEntry("Streaming", "streaming", codegen.ModeAuto),
		fromEntry("FFT", "optimisedfft", codegen.ModeHand),
		nested,
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := codegen.Options{Package: "gen", Mode: c.mode}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codegen.Generate(c.proto, c.fsms, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
