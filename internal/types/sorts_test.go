package types

import (
	"math/rand"
	"strings"
	"testing"
)

func TestBuiltinSortsKnown(t *testing.T) {
	for _, s := range []Sort{Unit, Nat, Int, I32, U32, I64, U64, F64, Str, Bool, Complex128, ""} {
		if !KnownSort(s) {
			t.Errorf("built-in sort %q not known", s)
		}
	}
	for _, s := range []Sort{"frob", "vec<frob>", "vec<vec<frob>>", "vec<unit>", "vec<>"} {
		if KnownSort(s) {
			t.Errorf("sort %q should be unknown", s)
		}
	}
}

// TestKnownSortAgreesWithLookup pins KnownSort, which skips deriving
// vector codecs, to LookupSort's verdict.
func TestKnownSortAgreesWithLookup(t *testing.T) {
	sorts := []Sort{"frob", "vec<frob>", "vec<vec<frob>>", "vec<unit>", "vec<vec<unit>>", "vec<>", "vec<vec<f64>>", "vec<str>"}
	for _, info := range RegisteredSorts() {
		sorts = append(sorts, info.Name, VecOf(info.Name), VecOf(VecOf(info.Name)))
	}
	for _, s := range sorts {
		if _, ok := LookupSort(s); s != Unit && KnownSort(s) != ok {
			t.Errorf("KnownSort(%q) = %v, LookupSort ok = %v", s, KnownSort(s), ok)
		}
	}
}

func TestVecSortDerivation(t *testing.T) {
	v := VecOf(Complex128)
	if v != "vec<complex128>" {
		t.Fatalf("VecOf = %q", v)
	}
	elem, ok := VecElem(v)
	if !ok || elem != Complex128 {
		t.Fatalf("VecElem(%q) = %q, %v", v, elem, ok)
	}
	if _, ok := VecElem("f64"); ok {
		t.Error("VecElem accepted a scalar")
	}
	info, ok := LookupSort(v)
	if !ok || info.Go != "[]complex128" {
		t.Fatalf("LookupSort(%q) = %+v, %v", v, info, ok)
	}
	// Nested vectors derive nested slices.
	info, ok = LookupSort(VecOf(VecOf(F64)))
	if !ok || info.Go != "[][]float64" {
		t.Fatalf("LookupSort(vec<vec<f64>>) = %+v, %v", info, ok)
	}
	// vec over a signal sort carries nothing representable.
	if _, ok := LookupSort(VecOf(Unit)); ok {
		t.Error("vec<unit> should have no binding")
	}
}

func TestRegisterSort(t *testing.T) {
	if err := RegisterSort(SortInfo{Name: "testsort_point", Go: "image.Point"}); err != nil {
		t.Fatal(err)
	}
	if !KnownSort("testsort_point") || !KnownSort("vec<testsort_point>") {
		t.Error("registered sort (or its vector) not known")
	}
	// Idempotent for the identical binding.
	if err := RegisterSort(SortInfo{Name: "testsort_point", Go: "image.Point"}); err != nil {
		t.Errorf("identical re-registration: %v", err)
	}
	// Conflicting rebind is an error, including for built-ins, and a
	// changed import path is a conflict even with the same type spelling.
	if err := RegisterSort(SortInfo{Name: "testsort_point", Go: "string"}); err == nil {
		t.Error("conflicting re-registration accepted")
	}
	if err := RegisterSort(SortInfo{Name: "testsort_point", Go: "image.Point", Import: "example.com/other/image"}); err == nil {
		t.Error("re-registration with a different import path accepted")
	}
	if err := RegisterSort(SortInfo{Name: I32, Go: "int64"}); err == nil {
		t.Error("rebinding a built-in accepted")
	}
	// Malformed registrations.
	for _, info := range []SortInfo{
		{Name: "", Go: "int"},
		{Name: "vec<f64>", Go: "[]float64"}, // derived, never registered
		{Name: "has space", Go: "int"},
		{Name: "x'", Go: "int"}, // primes lex in local types but not Scribble
		{Name: "nospace", Go: ""},
	} {
		if err := RegisterSort(info); err == nil {
			t.Errorf("RegisterSort(%+v) accepted", info)
		}
	}
	// Bindings the code generator could not emit: a Go type that is not a
	// type where generated code spells one, or an import path a compiler
	// may refuse.
	for _, info := range []SortInfo{
		{Name: "testsort_bad", Go: "1+2"},
		{Name: "testsort_bad", Go: "int; func"},
		{Name: "testsort_bad", Go: "[]"},
		{Name: "testsort_bad", Go: "map[int"},
		{Name: "testsort_bad", Go: "int\n"},
		{Name: "testsort_bad", Go: "int // c"},
		{Name: "testsort_bad", Go: "func"},
		{Name: "testsort_bad", Go: "...int"},
		{Name: "testsort_bad", Go: "int\x00"},
		{Name: "testsort_bad", Go: "mypkg.T", Import: "a b"},
		{Name: "testsort_bad", Go: "mypkg.T", Import: `a"b`},
		{Name: "testsort_bad", Go: "mypkg.T", Import: "a\nb"},
		{Name: "testsort_bad", Go: "mypkg.T", Import: "a\xffb"},
	} {
		if err := RegisterSort(info); err == nil {
			t.Errorf("RegisterSort of Go %q, import %q accepted", info.Go, info.Import)
		}
	}
	if KnownSort("testsort_bad") {
		t.Error("a refused binding was registered")
	}
	// Every binding registered anywhere in the repository, and every
	// built-in's, stays accepted.
	accepted := []SortInfo{
		{Go: "image.Point"},
		{Go: "[]byte"},
		{Go: "[][]float32"},
		{Go: "uint8"},
		{Go: "big.Float", Import: "math/big"},
		{Go: "types.Role", Import: "repro/internal/types"},
		{Go: "mypkg.Blob", Import: "example.com/mypkg"},
		{Go: "mypkg.Reading", Import: "example.com/mypkg"},
		{Go: "any"},
		{Go: "map[string][]int"},
		{Go: "struct{ X, Y int }"},
		{Go: "func(int) error"},
	}
	for _, info := range RegisteredSorts() {
		if info.Go != "" {
			accepted = append(accepted, info)
		}
	}
	for _, info := range accepted {
		if err := checkBinding(info); err != nil {
			t.Errorf("binding %s (import %q) refused: %v", info.Go, info.Import, err)
		}
	}
}

func TestRegisteredSortsSeedsAreKnown(t *testing.T) {
	seen := map[Sort]bool{}
	for _, info := range RegisteredSorts() {
		if seen[info.Name] {
			t.Errorf("duplicate registry entry %q", info.Name)
		}
		seen[info.Name] = true
		if !KnownSort(info.Name) {
			t.Errorf("registered sort %q not known", info.Name)
		}
	}
	if !seen[Complex128] || !seen[F64] {
		t.Error("registry misses built-ins")
	}
}

// randomSort draws a sort from the registered names wrapped in up to depth
// vector constructors — the generator behind the parse→format→parse
// property below and the fuzz seeds.
func randomSort(r *rand.Rand, depth int) Sort {
	reg := RegisteredSorts()
	s := reg[r.Intn(len(reg))].Name
	if s == Unit {
		s = F64 // unit renders as no sort; pick a payload sort
	}
	for d := r.Intn(depth + 1); d > 0; d-- {
		s = VecOf(s)
	}
	return s
}

// TestSortRoundTripProperty is the registry-seeded parse→format→parse
// fixpoint: any local or global type whose payload sorts are drawn from the
// registry (with random vector nesting) must print to a form that reparses
// to a structurally identical type, with the parameterised sorts intact.
func TestSortRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		s := randomSort(r, 3)
		l := LSend("q", "m", s, LRecv("q", "r", s, End{}))
		printed := l.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed %q does not reparse: %v", printed, err)
		}
		if !EqualLocal(l, again) {
			t.Fatalf("round trip changed %q -> %q", printed, again)
		}
		if !strings.Contains(printed, string(s)) {
			t.Fatalf("printed %q lost sort %q", printed, s)
		}
		g := GComm("p", "q", "m", s, GEnd{})
		gPrinted := g.String()
		gAgain, err := ParseGlobal(gPrinted)
		if err != nil {
			t.Fatalf("printed global %q does not reparse: %v", gPrinted, err)
		}
		if g.String() != gAgain.String() {
			t.Fatalf("global round trip changed %q -> %q", gPrinted, gAgain)
		}
	}
}

func TestParseParameterisedSortCanonicalises(t *testing.T) {
	l, err := Parse("q!m( vec < vec < f64 > > ).end")
	if err != nil {
		t.Fatal(err)
	}
	got := l.(Send).Branches[0].Sort
	if got != "vec<vec<f64>>" {
		t.Fatalf("sort = %q, want canonical vec<vec<f64>>", got)
	}
	for _, bad := range []string{"q!m(vec<).end", "q!m(vec<f64).end", "q!m(<f64>).end", "q!m(vec<f64>>).end"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("malformed sort %q accepted", bad)
		}
	}
}

func TestUnknownSorts(t *testing.T) {
	l := MustParse("q!a(i32).q?b(mystery).q!c(vec<mystery>).q!d(mystery).end")
	got := UnknownSortsLocal(l)
	if len(got) != 2 || got[0] != "mystery" || got[1] != "vec<mystery>" {
		t.Fatalf("UnknownSortsLocal = %v", got)
	}
	g := MustParseGlobal("p->q:a(vec<complex128>).p->q:b(enigma).end")
	gGot := UnknownSortsGlobal(g)
	if len(gGot) != 1 || gGot[0] != "enigma" {
		t.Fatalf("UnknownSortsGlobal = %v", gGot)
	}
}
