package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// runSource type-checks one in-memory file against the module's export
// data and runs all analyzers, suppression filtering included.
func runSource(t *testing.T, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	resolver := newExportResolver("../..")
	resolver.warm([]string{"./..."})
	pkg, info, err := CheckFiles(fset, "p", []*ast.File{f}, resolver.lookup)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunAnalyzers(fset, []*ast.File{f}, pkg, info, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// The corpus tests run one analyzer over its testdata package and match
// findings against `// want` annotations; unannotated lines double as
// non-diagnostic pins. The corpora import the checked-in generated
// examples, so they exercise the marker-based detection end to end.

func TestStateConsumedCorpus(t *testing.T) {
	RunCorpus(t, "testdata/stateconsumed", []*Analyzer{StateConsumedAnalyzer})
}

func TestStateDroppedCorpus(t *testing.T) {
	RunCorpus(t, "testdata/statedropped", []*Analyzer{StateDroppedAnalyzer})
}

func TestWouldBlockCorpus(t *testing.T) {
	RunCorpus(t, "testdata/wouldblock", []*Analyzer{WouldBlockAnalyzer})
}

func TestBranchSumCorpus(t *testing.T) {
	RunCorpus(t, "testdata/branchsum", []*Analyzer{BranchSumAnalyzer})
}

// TestRepoClean is the zero-findings gate: the whole module, examples
// included, must pass every analyzer. A deliberate-misuse test that
// trips an analyzer documents itself with a //sessvet:ignore comment;
// anything else reported here is a real session bug (or an analyzer
// false positive — either way it blocks).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	findings, err := Run("../..", Analyzers(), "./...", "./examples/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func TestAnalyzersComplete(t *testing.T) {
	want := map[string]bool{
		"stateconsumed": true,
		"statedropped":  true,
		"wouldblock":    true,
		"branchsum":     true,
	}
	for _, a := range Analyzers() {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		delete(want, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
	for name := range want {
		t.Errorf("analyzer %q not registered", name)
	}
}

// The detector recognises branch arms by reversing codegen's identifier
// mangling; the two copies must agree or arm narrowing silently breaks.
func TestExportIdentMatchesCodegen(t *testing.T) {
	cases := map[string]string{
		"value":     "Value",
		"stop":      "Stop",
		"add-done":  "Add_done",
		"2fast":     "X2fast",
		"ok_now":    "Ok_now",
		"weird~lbl": "Weird_lbl",
		"数":         "X数",
		"_under":    "X_under",
	}
	for in, want := range cases {
		if got := exportIdent(in); got != want {
			t.Errorf("exportIdent(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSuppressionParsing(t *testing.T) {
	src := `package p

import streaming "repro/examples/gen/streaming"

func all(s0 streaming.S0) {
	//sessvet:ignore -- every analyzer waived
	s0.SendValue(1)
}

func named(s0 streaming.S0) {
	s0.SendValue(1) //sessvet:ignore statedropped -- the drop is the point
}

func wrongName(s0 streaming.S0) {
	s0.SendValue(1) //sessvet:ignore branchsum -- does not cover statedropped
}
`
	findings := runSource(t, src)
	var kept []string
	for _, f := range findings {
		kept = append(kept, f.Analyzer)
	}
	if len(kept) != 1 || kept[0] != "statedropped" {
		t.Errorf("suppression kept %v, want exactly one statedropped (from wrongName)", kept)
	}
	if len(findings) == 1 && !strings.Contains(findings[0].String(), "[statedropped]") {
		t.Errorf("finding %q does not carry its analyzer tag", findings[0])
	}
}
