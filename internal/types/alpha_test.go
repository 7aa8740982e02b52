package types

import (
	"testing"
	"testing/quick"
)

func TestAlphaEqualLocal(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"mu x.p!a.x", "mu y.p!a.y", true},
		{"mu x.p!a.x", "mu x.p!a.x", true},
		{"mu x.p!a.x", "mu y.p!b.y", false},
		{"mu x.mu y.p!{a.x, b.y}", "mu u.mu v.p!{a.u, b.v}", true},
		{"mu x.mu y.p!{a.x, b.y}", "mu u.mu v.p!{a.v, b.u}", false},
		{"end", "end", true},
		{"p!a.end", "q!a.end", false},
		{"p!a(i32).end", "p!a(i64).end", false},
		{"p!a.end", "p?a.end", false},
		// Unannotated sorts are Unit.
		{"p!a.end", "p!a(unit).end", true},
		// Shadowing must be respected.
		{"mu x.p!a.mu x.p!b.x", "mu y.p!a.mu z.p!b.z", true},
		{"mu x.p!a.mu y.p!b.x", "mu u.p!a.mu v.p!b.v", false},
	}
	for _, c := range cases {
		if got := AlphaEqualLocal(MustParse(c.a), MustParse(c.b)); got != c.want {
			t.Errorf("AlphaEqualLocal(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAlphaEqualFreeVars(t *testing.T) {
	// Free variables compare by name.
	if !alphaLocal(Var{Name: "x"}, Var{Name: "x"}, nil) {
		t.Error("same free var rejected")
	}
	if alphaLocal(Var{Name: "x"}, Var{Name: "y"}, nil) {
		t.Error("different free vars accepted")
	}
	// A bound variable never matches a free one.
	a := Rec{Name: "x", Body: LSend("p", "l", Unit, Var{Name: "x"})}
	b := Rec{Name: "y", Body: LSend("p", "l", Unit, Var{Name: "z"})}
	if AlphaEqualLocal(a, b) {
		t.Error("bound/free confusion")
	}
}

func TestAlphaEqualGlobal(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"mu x.a->b:m.x", "mu y.a->b:m.y", true},
		{"mu x.a->b:m.x", "mu y.b->a:m.y", false},
		{"a->b:{l.end, r.end}", "a->b:{l.end, r.end}", true},
		{"a->b:{l.end, r.end}", "a->b:{l.end, q.end}", false},
	}
	for _, c := range cases {
		if got := alphaGlobal(MustParseGlobal(c.a), MustParseGlobal(c.b), nil); got != c.want {
			t.Errorf("AlphaEqualGlobal(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAlphaCanonicalLocal(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{"mu x.p!a.x", "mu y.p!a.y", true},
		{"mu x.mu y.p!{a.x, b.y}", "mu u.mu v.p!{a.u, b.v}", true},
		{"mu x.mu y.p!{a.x, b.y}", "mu u.mu v.p!{a.v, b.u}", false},
		{"mu x.p!a.mu x.p!b.x", "mu y.p!a.mu z.p!b.z", true},
		{"p!a.end", "p!a(unit).end", true},
		{"mu x.p!a.x", "mu y.p!b.y", false},
	}
	for _, c := range cases {
		ka := AlphaCanonicalLocal(MustParse(c.a)).String()
		kb := AlphaCanonicalLocal(MustParse(c.b)).String()
		if (ka == kb) != c.same {
			t.Errorf("canonical keys of %q and %q: %q vs %q, want same=%v", c.a, c.b, ka, kb, c.same)
		}
	}
}

func TestAlphaCanonicalPreservesMeaning(t *testing.T) {
	// The canonical form is α-equivalent to the input and idempotent.
	for _, src := range []string{
		"mu x.p!a.x",
		"mu x.p!a.mu y.q?b.p!{c.x, d.y}",
		"mu x.p!a.mu x.p!b.x",
	} {
		orig := MustParse(src)
		canon := AlphaCanonicalLocal(orig)
		if !AlphaEqualLocal(orig, canon) {
			t.Errorf("canonical form of %q not α-equal: %s", src, canon)
		}
		if again := AlphaCanonicalLocal(canon); again.String() != canon.String() {
			t.Errorf("canonicalisation of %q not idempotent: %s vs %s", src, canon, again)
		}
	}
}

func TestQuickAlphaCanonicalAgreesWithAlphaEqual(t *testing.T) {
	// Canonical-key equality coincides with α-equivalence (checked on a type
	// against a consistently renamed copy of itself).
	var rename func(t Local, suffix string) Local
	rename = func(t Local, suffix string) Local {
		switch t := t.(type) {
		case End:
			return t
		case Var:
			return Var{Name: t.Name + suffix}
		case Rec:
			return Rec{Name: t.Name + suffix, Body: rename(t.Body, suffix)}
		case Send:
			return Send{Peer: t.Peer, Branches: renameBranches(t.Branches, suffix, rename)}
		case Recv:
			return Recv{Peer: t.Peer, Branches: renameBranches(t.Branches, suffix, rename)}
		}
		return t
	}
	f := func(g localGen) bool {
		r := rename(g.T, "_c")
		return AlphaCanonicalLocal(g.T).String() == AlphaCanonicalLocal(r).String()
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestQuickAlphaRefinesEqual(t *testing.T) {
	// Structural equality implies α-equivalence.
	f := func(g localGen) bool {
		return AlphaEqualLocal(g.T, g.T)
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

func TestQuickAlphaInvariantUnderRenaming(t *testing.T) {
	// Renaming every binder consistently preserves α-equivalence.
	var rename func(t Local, suffix string) Local
	rename = func(t Local, suffix string) Local {
		switch t := t.(type) {
		case End:
			return t
		case Var:
			return Var{Name: t.Name + suffix}
		case Rec:
			return Rec{Name: t.Name + suffix, Body: rename(t.Body, suffix)}
		case Send:
			return Send{Peer: t.Peer, Branches: renameBranches(t.Branches, suffix, rename)}
		case Recv:
			return Recv{Peer: t.Peer, Branches: renameBranches(t.Branches, suffix, rename)}
		}
		return t
	}
	f := func(g localGen) bool {
		return AlphaEqualLocal(g.T, rename(g.T, "_r"))
	}
	if err := quick.Check(f, quickConfig()); err != nil {
		t.Error(err)
	}
}

func renameBranches(bs []Branch, suffix string, rename func(Local, string) Local) []Branch {
	out := make([]Branch, len(bs))
	for i, b := range bs {
		out[i] = Branch{Label: b.Label, Sort: b.Sort, Cont: rename(b.Cont, suffix)}
	}
	return out
}
