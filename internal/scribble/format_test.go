package scribble

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/protocols"
	"repro/internal/types"
)

func TestFormatRoundTripsFigures(t *testing.T) {
	for _, src := range []string{streamingSrc, doubleBufferingSrc} {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Format(p1)
		if err != nil {
			t.Fatalf("formatting %s: %v", p1.Name, err)
		}
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("reparsing formatted %s: %v\n%s", p1.Name, err, out)
		}
		if p2.Name != p1.Name || !reflect.DeepEqual(p2.Roles, p1.Roles) || !reflect.DeepEqual(p2.Global, p1.Global) {
			t.Errorf("%s did not round-trip:\n%s", p1.Name, out)
		}
	}
}

// TestFormatRegistry renders every registry protocol that has a global type
// and round-trips it: the corpus the fuzz test is seeded from must hold the
// round-trip invariant deterministically, not just under fuzzing.
func TestFormatRegistry(t *testing.T) {
	for _, e := range protocols.Registry() {
		if e.Global == nil {
			continue
		}
		src, err := FormatGlobal(registryProtoName(e.Name), e.Global)
		if err != nil {
			t.Errorf("formatting %s: %v", e.Name, err)
			continue
		}
		p, err := Parse(src)
		if err != nil {
			t.Errorf("reparsing formatted %s: %v\n%s", e.Name, err, src)
			continue
		}
		if !reflect.DeepEqual(p.Global, e.Global) {
			t.Errorf("%s did not round-trip:\nformatted:\n%s\ngot:  %s\nwant: %s", e.Name, src, p.Global, e.Global)
		}
	}
}

func TestFormatGolden(t *testing.T) {
	p := mustParse(streamingSrc)
	got, err := Format(p)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"global protocol Ring(role s, role t) {",
		"  rec loop {",
		"    ready() from t to s;",
		"    choice at s {",
		"      value() from s to t;",
		"      continue loop;",
		"    } or {",
		"      stop() from s to t;",
		"    }",
		"  }",
		"}",
		"",
	}, "\n")
	if got != want {
		t.Errorf("Format =\n%s\nwant:\n%s", got, want)
	}
}

func TestFormatRejectsUnprintable(t *testing.T) {
	cases := []*Protocol{
		{Name: "bad name", Roles: []types.Role{"a"}, Global: types.GEnd{}},
		{Name: "P", Roles: []types.Role{"role"}, Global: types.GEnd{}},
		{Name: "P", Roles: nil, Global: types.GEnd{}},
		{Name: "P", Roles: []types.Role{"a", "b"},
			Global: types.GComm("a", "b", "l;l", types.Unit, types.GEnd{})},
	}
	for i, p := range cases {
		if _, err := Format(p); err == nil {
			t.Errorf("case %d: unprintable protocol accepted", i)
		}
	}
}

// TestParameterisedSortRoundTrip pins the vector-sort surface syntax: a
// vec<complex128> payload parses to the canonical whitespace-free sort,
// formats back to the same token, and whitespace inside the brackets is
// insignificant on the way in.
func TestParameterisedSortRoundTrip(t *testing.T) {
	src := `global protocol F(role a, role b) {
  col(vec<complex128>) from a to b;
  col2( vec < vec < f64 > > ) from b to a;
}`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	comm := p.Global.(types.Comm)
	if got := comm.Branches[0].Sort; got != "vec<complex128>" {
		t.Fatalf("sort = %q", got)
	}
	inner := comm.Branches[0].Cont.(types.Comm)
	if got := inner.Branches[0].Sort; got != "vec<vec<f64>>" {
		t.Fatalf("nested sort = %q, want canonical spelling", got)
	}
	out, err := Format(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"col(vec<complex128>)", "col2(vec<vec<f64>>)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted output lacks %q:\n%s", frag, out)
		}
	}
	p2, err := Parse(out)
	if err != nil {
		t.Fatalf("formatted output does not reparse: %v", err)
	}
	if !reflect.DeepEqual(p.Global, p2.Global) {
		t.Error("round trip changed the protocol")
	}
	// A sort the printer cannot re-tokenise must be rejected, not mangled.
	bad := &Protocol{Name: "B", Roles: []types.Role{"a", "b"},
		Global: types.GComm("a", "b", "m", types.Sort("vec<f64"), types.GEnd{})}
	if _, err := Format(bad); err == nil {
		t.Error("unbalanced sort accepted by the printer")
	}
}

// registryProtoName mangles a Table 1 row name into a Scribble protocol
// identifier ("Double Buffering" -> "DoubleBuffering").
func registryProtoName(name string) string {
	var b strings.Builder
	for _, r := range name {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "P"
	}
	return b.String()
}
