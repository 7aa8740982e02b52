package types

import (
	"sort"
	"strings"
	"testing"
)

func TestSubSort(t *testing.T) {
	cases := []struct {
		a, b Sort
		want bool
	}{
		{Nat, Int, true},
		{Int, Nat, false},
		{I32, I32, true},
		{I32, I64, false},
		{Unit, Unit, true},
	}
	for _, c := range cases {
		if got := SubSort(c.a, c.b); got != c.want {
			t.Errorf("SubSort(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	sources := []string{
		"end",
		"mu x.s!ready.x",
		"mu x.s!ready.s?copy.t?ready.t!copy.x",
		"t?ready.s!{value(i32).end, stop.end}",
		"mu t.a?add.c!{add.t, sub.t}",
		"mu t.s?{d0.s!a0.t, d1.s!a1.t}",
		"p?l1.p!l2.end",
	}
	for _, src := range sources {
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := parsed.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, printed, err)
		}
		if !EqualLocal(parsed, again) {
			t.Errorf("round trip mismatch: %q -> %q -> %q", src, printed, again.String())
		}
	}
}

func TestGlobalStringRoundTrip(t *testing.T) {
	sources := []string{
		"end",
		"mu x.k->s:ready.s->k:value.t->k:ready.k->t:value.x",
		"mu x.t->s:ready.s->t:{value.x, stop.end}",
		"p->q:{l1(i32).q->p:l2.end}",
	}
	for _, src := range sources {
		parsed, err := ParseGlobal(src)
		if err != nil {
			t.Fatalf("ParseGlobal(%q): %v", src, err)
		}
		printed := parsed.String()
		again, err := ParseGlobal(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, printed, err)
		}
		if parsed.String() != again.String() {
			t.Errorf("round trip mismatch: %q -> %q -> %q", src, printed, again.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"mu .x",
		"p!",
		"p!{}",
		"p!{l.end",
		"p!l(end",
		"end garbage",
		"p->:l.end",
		"p->q{l.end}",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			if _, gerr := ParseGlobal(src); gerr == nil {
				t.Errorf("Parse(%q): expected error, got none (local and global both parsed)", src)
			}
		}
	}
	if _, err := Parse("p!{l.end"); err == nil {
		t.Error("unterminated brace accepted")
	}
	if _, err := ParseGlobal("p->p:l.end garbage"); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestUnfold(t *testing.T) {
	rec := MustParse("mu x.s!ready.x")
	un := Unfold(rec)
	want := "s!{ready.mu x.s!{ready.x}}"
	if un.String() != want {
		t.Errorf("Unfold = %q, want %q", un.String(), want)
	}
	// Unfolding a non-recursive type is the identity.
	plain := MustParse("s!ready.end")
	if !EqualLocal(Unfold(plain), plain) {
		t.Error("Unfold changed a non-recursive type")
	}
	// Nested recursion unfolds through all leading binders.
	nested := MustParse("mu a.mu b.s!go.a")
	if _, ok := Unfold(nested).(Send); !ok {
		t.Errorf("Unfold(nested) = %T, want Send", Unfold(nested))
	}
}

func TestSubstShadowing(t *testing.T) {
	// Substituting x inside mu x must not touch the shadowed body.
	typ := MustParse("mu x.s!a.x")
	got := SubstLocal(typ, "x", End{})
	if !EqualLocal(got, typ) {
		t.Errorf("substitution entered shadowed binder: %s", got)
	}
	// But a free occurrence is replaced.
	free := MustParse("s!a.x")
	got = SubstLocal(free, "x", End{})
	if got.String() != "s!{a.end}" {
		t.Errorf("SubstLocal = %s", got)
	}
}

func TestFreeVars(t *testing.T) {
	typ := MustParse("mu x.s!{a.x, b.y, c.mu y.s?d.y}")
	fv := FreeVars(typ)
	if len(fv) != 1 || fv[0] != "y" {
		t.Errorf("FreeVars = %v, want [y]", fv)
	}
	if fv := FreeVars(MustParse("mu x.s!a.x")); len(fv) != 0 {
		t.Errorf("closed type has free vars %v", fv)
	}
}

func TestValidateLocal(t *testing.T) {
	good := []string{
		"end",
		"mu x.s!ready.x",
		"mu x.s!{v.x, s.end}",
		"mu a.mu b.s!go.b", // nested binders, guarded
	}
	for _, src := range good {
		if err := ValidateLocal(MustParse(src)); err != nil {
			t.Errorf("ValidateLocal(%q) = %v, want nil", src, err)
		}
	}
	bad := map[string]Local{
		"unbound var":        Var{Name: "x"},
		"non-contractive":    Rec{Name: "x", Body: Var{Name: "x"}},
		"nested unguarded":   Rec{Name: "x", Body: Rec{Name: "y", Body: Var{Name: "x"}}},
		"empty choice":       Send{Peer: "p"},
		"duplicate label":    Send{Peer: "p", Branches: []Branch{{Label: "l", Sort: Unit, Cont: End{}}, {Label: "l", Sort: Unit, Cont: End{}}}},
		"empty peer":         Send{Peer: "", Branches: []Branch{{Label: "l", Sort: Unit, Cont: End{}}}},
		"empty label":        Recv{Peer: "p", Branches: []Branch{{Label: "", Sort: Unit, Cont: End{}}}},
		"bad nested subterm": LSend("p", "l", Unit, Var{Name: "zzz"}),
	}
	for name, typ := range bad {
		if err := ValidateLocal(typ); err == nil {
			t.Errorf("ValidateLocal(%s) = nil, want error", name)
		}
	}
}

func TestValidateGlobal(t *testing.T) {
	good := []string{
		"end",
		"mu x.k->s:ready.s->k:value.x",
		"mu x.t->s:ready.s->t:{value.x, stop.end}",
	}
	for _, src := range good {
		if err := ValidateGlobal(MustParseGlobal(src)); err != nil {
			t.Errorf("ValidateGlobal(%q) = %v, want nil", src, err)
		}
	}
	bad := map[string]Global{
		"self comm":       Comm{From: "p", To: "p", Branches: []GBranch{{Label: "l", Sort: Unit, Cont: GEnd{}}}},
		"unbound var":     GVar{Name: "x"},
		"non-contractive": GRec{Name: "x", Body: GVar{Name: "x"}},
		"empty choice":    Comm{From: "p", To: "q"},
		"dup label":       Comm{From: "p", To: "q", Branches: []GBranch{{Label: "l", Sort: Unit, Cont: GEnd{}}, {Label: "l", Sort: Unit, Cont: GEnd{}}}},
	}
	for name, g := range bad {
		if err := ValidateGlobal(g); err == nil {
			t.Errorf("ValidateGlobal(%s) = nil, want error", name)
		}
	}
}

func TestRolesAndPeers(t *testing.T) {
	g := MustParseGlobal("mu x.k->s:ready.s->k:value.t->k:ready.k->t:value.x")
	roles := Roles(g)
	if len(roles) != 3 || roles[0] != "k" || roles[1] != "s" || roles[2] != "t" {
		t.Errorf("Roles = %v", roles)
	}
	l := MustParse("mu x.s!ready.s?copy.t?ready.t!copy.x")
	peers := Peers(l)
	if len(peers) != 2 || peers[0] != "s" || peers[1] != "t" {
		t.Errorf("Peers = %v", peers)
	}
	if got := Peers(End{}); len(got) != 0 {
		t.Errorf("Peers(end) = %v", got)
	}
}

func TestNormalizeLocal(t *testing.T) {
	raw := Send{Peer: "p", Branches: []Branch{{Label: "l", Sort: "", Cont: Recv{Peer: "q", Branches: []Branch{{Label: "m", Sort: "", Cont: End{}}}}}}}
	norm := NormalizeLocal(raw)
	s := norm.(Send)
	if s.Branches[0].Sort != Unit {
		t.Errorf("outer sort = %q", s.Branches[0].Sort)
	}
	inner := s.Branches[0].Cont.(Recv)
	if inner.Branches[0].Sort != Unit {
		t.Errorf("inner sort = %q", inner.Branches[0].Sort)
	}
	r := NormalizeLocal(Rec{Name: "x", Body: Var{Name: "x"}})
	if r.String() != "mu x.x" {
		t.Errorf("NormalizeLocal(rec) = %s", r)
	}
}

func TestPaperTypesParse(t *testing.T) {
	// The exact types used in the paper's worked examples must parse and
	// validate.
	paper := map[string]string{
		"streaming global":   "mu x.t->s:ready.s->t:{value.x, stop.end}",
		"double buf global":  "mu x.k->s:ready.s->k:value.t->k:ready.k->t:value.x",
		"kernel projected":   "mu x.s!ready.s?copy.t?ready.t!copy.x",
		"kernel optimised":   "s!ready.mu x.s!ready.s?copy.t?ready.t!copy.x",
		"ring optimised":     "mu t.c!{add.a?add.t, sub.a?add.t}",
		"ring projected":     "mu t.a?add.c!{add.t, sub.t}",
		"alt-bit receiver":   "mu t.s?{d0.s!a0.t, d1.s!a1.t}",
		"alt-bit projection": "mu t.s?d0.s!{a0.mu x.s?d1.s!{a0.x, a1.t}, a1.t}",
	}
	for name, src := range paper {
		var err error
		if strings.Contains(src, "->") {
			err = ValidateGlobal(MustParseGlobal(src))
		} else {
			err = ValidateLocal(MustParse(src))
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Peers returns the participants a local type communicates with, sorted.
func Peers(t Local) []Role {
	set := map[Role]bool{}
	var walk func(Local)
	walk = func(t Local) {
		switch t := t.(type) {
		case Send:
			set[t.Peer] = true
			for _, b := range t.Branches {
				walk(b.Cont)
			}
		case Recv:
			set[t.Peer] = true
			for _, b := range t.Branches {
				walk(b.Cont)
			}
		case Rec:
			walk(t.Body)
		}
	}
	walk(t)
	out := make([]Role, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
