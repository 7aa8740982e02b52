package codegen_test

import (
	"bytes"
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	genstreaming "repro/examples/gen/streaming"
	"repro/internal/codegen"
	"repro/internal/codegen/genrt"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/scribble"
	"repro/internal/types"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden pins the generator's exact output on protocols exercising every
// feature: internal and external choice, payload sorts, recursion, End.
func golden(t *testing.T, name string, src []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(src, want) {
		t.Errorf("generated source differs from %s (rerun with -update after reviewing):\n%s", path, src)
	}
}

func TestGoldenTwoAdder(t *testing.T) {
	e, ok := protocols.Find("two adder")
	if !ok {
		t.Fatal("Two Adder not in registry")
	}
	src, err := codegen.FromEntry(e, codegen.Options{Package: "twoadder"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "twoadder.go.golden", src)
}

func TestGoldenAuthentication(t *testing.T) {
	e, ok := protocols.Find("authentication")
	if !ok {
		t.Fatal("Authentication not in registry")
	}
	src, err := codegen.FromEntry(e, codegen.Options{Package: "auth"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "auth.go.golden", src)
}

// The Scribble sources of the greeter and vecswap golden files.
const (
	greeterScr = `
global protocol Greeter(role c, role s) {
  hello(str) from c to s;
  choice at s {
    ok(i32) from s to c;
  } or {
    bye() from s to c;
  }
}`
	swapScr = `
global protocol Swap(role a, role b) {
  frame(vec<f64>) from a to b;
  frame(vec<f64>) from b to a;
  done() from a to b;
}`
)

func TestGoldenScribble(t *testing.T) {
	src, err := codegen.FromScribble(scribble.MustParse(greeterScr), codegen.Options{Package: "greeter"})
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "greeter.go.golden", src)
}

// TestCheckedInPackagesCurrent is the in-test twin of the CI drift gate:
// regenerating the examples/gen packages with the options recorded in
// their go:generate directives must reproduce the checked-in sources.
func TestCheckedInPackagesCurrent(t *testing.T) {
	for _, c := range checkedIn {
		t.Run(c.pkg, func(t *testing.T) {
			e, ok := protocols.Find(c.protocol)
			if !ok {
				t.Fatalf("%s not in registry", c.protocol)
			}
			src, err := codegen.FromEntry(e, codegen.Options{Package: c.pkg, Mode: c.mode})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("..", "..", "examples", "gen", c.dir, "gen.go")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(src, want) {
				t.Errorf("checked-in %s drifted from the generator; run `go generate ./...`", path)
			}
		})
	}
}

// TestGoldenVectorPayload pins the generator's output on a protocol whose
// payloads are parameterised vector sorts: the swap protocol exchanges
// vec<f64> frames in both directions, so the golden file carries []float64
// payload parameters, the typed genrt.As converter and the *new([]float64)
// zero value — the whole registry-bound path, none of the scalar table.
func TestGoldenVectorPayload(t *testing.T) {
	src, err := codegen.FromScribble(scribble.MustParse(swapScr), codegen.Options{Package: "swap"})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"payload []float64", `genrt.As[[]float64]("vec<f64>", v)`, "*new([]float64)"} {
		if !bytes.Contains(src, []byte(frag)) {
			t.Errorf("vector-payload output lacks %q", frag)
		}
	}
	golden(t, "vecswap.go.golden", src)
}

// TestGenerateRejectsUnknownSort pins the open-registry contract: a sort
// nobody registered is a hard generation error naming the sort and the
// registration escape hatches — not a silent downgrade to an any-typed API.
func TestGenerateRejectsUnknownSort(t *testing.T) {
	m := fsm.MustFromLocal("a", types.MustParse("b!x(frobnicator).end"))
	_, err := codegen.Generate("p", map[types.Role]*fsm.FSM{"a": m}, codegen.Options{Package: "p"})
	if err == nil {
		t.Fatal("unknown sort accepted")
	}
	for _, frag := range []string{"frobnicator", "sortmap", "RegisterSort"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

// TestGenerateRegisteredOpaqueSort is the -sortmap path end to end at the
// library level: registering an opaque sort with a Go binding makes
// generation succeed, with the bound type as the payload type and the exact
// typed converter on the receive path.
func TestGenerateRegisteredOpaqueSort(t *testing.T) {
	if err := types.RegisterSort(types.SortInfo{Name: "samplebatch", Go: "[][]float32"}); err != nil {
		t.Fatal(err)
	}
	m := fsm.MustFromLocal("a", types.MustParse("b?x(samplebatch).end"))
	src, err := codegen.Generate("p", map[types.Role]*fsm.FSM{"a": m}, codegen.Options{Package: "p"})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"([][]float32, AEnd, error)", `genrt.As[[][]float32]("samplebatch", v)`} {
		if !bytes.Contains(src, []byte(frag)) {
			t.Errorf("opaque-sort output lacks %q:\n%s", frag, src)
		}
	}
}

// TestGenerateImportsSortBinding pins that a sort bound to a
// package-qualified Go type carries its import into the generated file —
// including through vector derivation, which propagates the element
// binding's import.
func TestGenerateImportsSortBinding(t *testing.T) {
	if err := types.RegisterSort(types.SortInfo{Name: "bigmat", Go: "big.Float", Import: "math/big"}); err != nil {
		t.Fatal(err)
	}
	m := fsm.MustFromLocal("a", types.MustParse("b?x(vec<bigmat>).end"))
	src, err := codegen.Generate("p", map[types.Role]*fsm.FSM{"a": m}, codegen.Options{Package: "p"})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"\"math/big\"", "([]big.Float, AEnd, error)", `genrt.As[[]big.Float]("vec<bigmat>", v)`} {
		if !bytes.Contains(src, []byte(frag)) {
			t.Errorf("import-bound output lacks %q:\n%s", frag, src)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	e, _ := protocols.Find("elevator")
	a, err := codegen.FromEntry(e, codegen.Options{Package: "elevator"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := codegen.FromEntry(e, codegen.Options{Package: "elevator"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two generations of the same entry differ")
	}
}

func TestGenerateRejectsCollidingLabels(t *testing.T) {
	// "value" and "Value" mangle to the same exported identifier.
	m := fsm.MustFromLocal("a", types.MustParse("b!{value.end, Value.end}"))
	_, err := codegen.Generate("p", map[types.Role]*fsm.FSM{"a": m}, codegen.Options{Package: "p"})
	if err == nil {
		t.Fatal("colliding labels accepted")
	}
	// The rejection is typed: internal/protofuzz classifies it as a
	// by-design discard rather than a generator bug.
	if !errors.Is(err, codegen.ErrIdentCollision) {
		t.Fatalf("collision error is not ErrIdentCollision: %v", err)
	}
}

func TestGenerateRejectsUndirected(t *testing.T) {
	m := fsm.New("a")
	s1 := m.AddState()
	m.MustAddTransition(m.Initial(), fsm.Action{Dir: fsm.Send, Peer: "b", Label: "l"}, s1)
	m.MustAddTransition(m.Initial(), fsm.Action{Dir: fsm.Recv, Peer: "c", Label: "r"}, s1)
	_, err := codegen.Generate("p", map[types.Role]*fsm.FSM{"a": m}, codegen.Options{Package: "p"})
	if err == nil {
		t.Fatal("undirected machine accepted")
	}
}

func TestModeHandRequiresOptimisedTables(t *testing.T) {
	// Streaming's registry entry carries no hand-written Optimised table;
	// mode hand must fail loudly, not silently emit the plain machines
	// under an optimised=hand header.
	e, _ := protocols.Find("streaming")
	if _, err := codegen.FromEntry(e, codegen.Options{Package: "s", Mode: codegen.ModeHand}); err == nil {
		t.Fatal("mode hand on an entry without Optimised tables accepted")
	}
	// Elevator has one; mode hand must work there.
	e, _ = protocols.Find("elevator")
	if _, err := codegen.FromEntry(e, codegen.Options{Package: "elevator", Mode: codegen.ModeHand}); err != nil {
		t.Fatalf("mode hand on elevator: %v", err)
	}
}

func TestGenerateRejectsInvalidPackageName(t *testing.T) {
	e, _ := protocols.Find("ring")
	for _, pkg := range []string{"my-proto", "func", "0pkg", "a.b"} {
		if _, err := codegen.FromEntry(e, codegen.Options{Package: pkg}); err == nil {
			t.Errorf("package name %q accepted", pkg)
		}
	}
}

func TestGenerateUnicodeIdentifiers(t *testing.T) {
	// Scribble identifiers may carry any unicode letter (the .scr lexer
	// accepts them even though the local-type literal parser does not); the
	// mangler must be rune-aware, not byte-slicing.
	mk := func(role, peer types.Role, dir fsm.Dir, label types.Label) *fsm.FSM {
		m := fsm.New(role)
		end := m.AddState()
		m.MustAddTransition(m.Initial(), fsm.Action{Dir: dir, Peer: peer, Label: label, Sort: types.Unit}, end)
		return m
	}
	src, err := codegen.Generate("p", map[types.Role]*fsm.FSM{
		"δ": mk("δ", "ρ", fsm.Send, "μsg"),
		"ρ": mk("ρ", "δ", fsm.Recv, "μsg"),
	}, codegen.Options{Package: "p"})
	if err != nil {
		t.Fatalf("unicode identifiers: %v", err)
	}
	if !bytes.Contains(src, []byte("RoleΔ")) || !bytes.Contains(src, []byte("LabelΜsg")) {
		t.Errorf("mangled unicode identifiers missing from output")
	}
	assertStatesExported(t, src)

	// A caseless leading letter (CJK) has no upper-case form: like a
	// leading digit it is prefixed with X, so the API stays exported.
	src, err = codegen.Generate("p", map[types.Role]*fsm.FSM{
		"数": mk("数", "δ", fsm.Send, "值"),
		"δ": mk("δ", "数", fsm.Recv, "值"),
	}, codegen.Options{Package: "p"})
	if err != nil {
		t.Fatalf("caseless identifiers: %v", err)
	}
	for _, frag := range []string{"RoleX数", "LabelX值", "type X数0 struct", "type X数End struct", ") SendX值(", ") RecvX值("} {
		if !bytes.Contains(src, []byte(frag)) {
			t.Errorf("caseless identifiers: output lacks %q", frag)
		}
	}
	assertStatesExported(t, src)
}

// assertStatesExported parses a generated package and requires every state
// type, End type and Procs field to be exported. State and End types are
// the structs carrying the genrt.St stamp.
func assertStatesExported(t *testing.T, src []byte) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	states := 0
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				if ts.Name.Name == "Procs" {
					for _, n := range field.Names {
						if !n.IsExported() {
							t.Errorf("Procs field %s is not exported", n.Name)
						}
					}
				}
				if sel, ok := field.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "St" {
					states++
					if !ts.Name.IsExported() {
						t.Errorf("state type %s is not exported", ts.Name.Name)
					}
				}
			}
		}
	}
	if states == 0 {
		t.Error("no state types found")
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]codegen.Mode{
		"none": codegen.ModePlain, "plain": codegen.ModePlain, "": codegen.ModePlain,
		"auto": codegen.ModeAuto, "hand": codegen.ModeHand,
	} {
		got, err := codegen.ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := codegen.ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}

// The misuse tests below drive the checked-in generated streaming package:
// the type system prevents out-of-protocol actions, and the genrt one-shot
// stamps catch what Go cannot type — affine reuse of state values.

func TestGeneratedStateReuseFaults(t *testing.T) {
	net := genstreaming.NewNetwork()
	errc := make(chan error, 1)
	go func() {
		errc <- genstreaming.RunT(net, func(t0 genstreaming.T0) (genstreaming.TEnd, error) {
			//sessvet:ignore statedropped -- next state discarded to stage the reuse below
			if _, err := t0.SendReady(); err != nil {
				return genstreaming.TEnd{}, err
			}
			// Reusing the consumed t0 must fault immediately, before any
			// second message hits the wire.
			//sessvet:ignore stateconsumed,statedropped -- this reuse is the fault under test
			_, err := t0.SendReady()
			return genstreaming.TEnd{}, err
		})
	}()
	err := <-errc
	if !errors.Is(err, genrt.ErrStateConsumed) {
		t.Fatalf("state reuse error = %v, want ErrStateConsumed", err)
	}
	// The dynamic fault names the violating generated state, mirroring the
	// static diagnostic sessvet would have reported for the same reuse.
	if !strings.Contains(err.Error(), "streaming.T0: ") {
		t.Fatalf("state reuse error = %q, want it to name streaming.T0", err)
	}
}

func TestGeneratedWrongBranchConsumed(t *testing.T) {
	net := genstreaming.NewNetwork()
	done := make(chan error, 2)
	go func() {
		done <- genstreaming.RunS(net, func(s0 genstreaming.S0) (genstreaming.SEnd, error) {
			s1, err := s0.SendValue(1)
			if err != nil {
				return genstreaming.SEnd{}, err
			}
			s2, err := s1.SendValue(2)
			if err != nil {
				return genstreaming.SEnd{}, err
			}
			// Keep the session open long enough for the sink to branch.
			//sessvet:ignore statedropped -- deliberately left open for the peer's branch
			if _, err := s2.SendValue(3); err != nil {
				return genstreaming.SEnd{}, err
			}
			return genstreaming.SEnd{}, genrt.ErrStateConsumed // abandon deliberately
		})
	}()
	go func() {
		done <- genstreaming.RunT(net, func(t0 genstreaming.T0) (genstreaming.TEnd, error) {
			t2, err := t0.SendReady()
			if err != nil {
				return genstreaming.TEnd{}, err
			}
			b, err := t2.Branch()
			if err != nil {
				return genstreaming.TEnd{}, err
			}
			if b.Label != genstreaming.LabelValue {
				t.Errorf("expected a value branch, got %s", b.Label)
				return b.StopNext, nil
			}
			// The stop case was not taken: returning its (dead) End value
			// must be rejected as incomplete, not accepted as completion.
			//sessvet:ignore branchsum -- this dead-arm access is the fault under test
			return b.StopNext, nil
		})
	}()
	sawIncomplete := false
	for i := 0; i < 2; i++ {
		if err := <-done; errors.Is(err, genrt.ErrIncomplete) {
			sawIncomplete = true
		}
	}
	if !sawIncomplete {
		t.Fatal("returning a not-taken branch's End value was accepted as completion")
	}
}

func TestGeneratedRunRejectsMissingProc(t *testing.T) {
	err := genstreaming.Run(genstreaming.NewNetwork(), genstreaming.Procs{})
	if err == nil {
		t.Fatal("Run with missing processes succeeded")
	}
}

// TestGeneratedLinearityAcrossSessions pins that the generated runner rides
// on TrySession: two concurrent sessions over one role's endpoint must not
// both proceed.
func TestGeneratedLinearityAcrossSessions(t *testing.T) {
	net := genstreaming.NewNetwork()
	block := make(chan struct{})
	started := make(chan struct{})
	go genstreaming.RunT(net, func(t0 genstreaming.T0) (genstreaming.TEnd, error) {
		close(started)
		<-block
		return genstreaming.TEnd{}, genrt.ErrStateConsumed
	})
	<-started
	err := genstreaming.RunT(net, func(t0 genstreaming.T0) (genstreaming.TEnd, error) {
		//sessvet:ignore statedropped -- this proc must be rejected before it runs
		return genstreaming.TEnd{}, nil
	})
	close(block)
	if err == nil {
		t.Fatal("second concurrent session over the same endpoint was admitted")
	}
}
