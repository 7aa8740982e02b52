package types

import (
	"fmt"
	"math/rand"
	"testing"
)

// The map-based validators the stack walks replaced, kept as the oracle
// for their error text: every binder scope copied both maps, every choice
// allocated one.

func validateLocalMaps(t Local) error {
	return validateLocalRef(t, map[string]bool{}, map[string]bool{})
}

func validateLocalRef(t Local, bound, unguarded map[string]bool) error {
	switch t := t.(type) {
	case End:
		return nil
	case Var:
		if !bound[t.Name] {
			return fmt.Errorf("types: unbound recursion variable %q", t.Name)
		}
		if unguarded[t.Name] {
			return fmt.Errorf("types: non-contractive recursion through %q", t.Name)
		}
		return nil
	case Rec:
		b := copyBoolMap(bound)
		b[t.Name] = true
		u := copyBoolMap(unguarded)
		u[t.Name] = true
		return validateLocalRef(t.Body, b, u)
	case Send:
		return validateChoiceRef(t.Peer, t.Branches, bound)
	case Recv:
		return validateChoiceRef(t.Peer, t.Branches, bound)
	default:
		return fmt.Errorf("types: unknown local type %T", t)
	}
}

func validateChoiceRef(peer Role, branches []Branch, bound map[string]bool) error {
	if peer == "" {
		return fmt.Errorf("types: empty peer role")
	}
	if len(branches) == 0 {
		return fmt.Errorf("types: empty choice towards %s", peer)
	}
	seen := map[Label]bool{}
	for _, b := range branches {
		if b.Label == "" {
			return fmt.Errorf("types: empty label in choice towards %s", peer)
		}
		if seen[b.Label] {
			return fmt.Errorf("types: duplicate label %q in choice towards %s", b.Label, peer)
		}
		seen[b.Label] = true
		if err := validateLocalRef(b.Cont, bound, map[string]bool{}); err != nil {
			return err
		}
	}
	return nil
}

func validateGlobalMaps(g Global) error {
	return validateGlobalRef(g, map[string]bool{}, map[string]bool{})
}

func validateGlobalRef(g Global, bound, unguarded map[string]bool) error {
	switch g := g.(type) {
	case GEnd:
		return nil
	case GVar:
		if !bound[g.Name] {
			return fmt.Errorf("types: unbound recursion variable %q", g.Name)
		}
		if unguarded[g.Name] {
			return fmt.Errorf("types: non-contractive recursion through %q", g.Name)
		}
		return nil
	case GRec:
		b := copyBoolMap(bound)
		b[g.Name] = true
		u := copyBoolMap(unguarded)
		u[g.Name] = true
		return validateGlobalRef(g.Body, b, u)
	case Comm:
		if g.From == g.To {
			return fmt.Errorf("types: self-communication %s -> %s", g.From, g.To)
		}
		if len(g.Branches) == 0 {
			return fmt.Errorf("types: empty interaction %s -> %s", g.From, g.To)
		}
		seen := map[Label]bool{}
		for _, b := range g.Branches {
			if seen[b.Label] {
				return fmt.Errorf("types: duplicate label %q in %s -> %s", b.Label, g.From, g.To)
			}
			seen[b.Label] = true
			if err := validateGlobalRef(b.Cont, bound, map[string]bool{}); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("types: unknown global type %T", g)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// looseLocal draws a local type with no well-formedness guarantee: free,
// unguarded and shadowed variables, empty and repeated labels, empty
// peers and choices, nil continuations.
func looseLocal(r *rand.Rand, depth int) Local {
	names := []string{"x", "y", "z"}
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return End{}
		case 1:
			return Var{Name: names[r.Intn(len(names))]}
		}
		return nil
	}
	switch r.Intn(6) {
	case 0:
		return Var{Name: names[r.Intn(len(names))]}
	case 1, 2:
		return Rec{Name: names[r.Intn(len(names))], Body: looseLocal(r, depth-1)}
	}
	peers := []Role{"p", "q", ""}
	labels := []Label{"a", "b", ""}
	bs := make([]Branch, r.Intn(4))
	for i := range bs {
		bs[i] = Branch{Label: labels[r.Intn(len(labels))], Sort: Unit, Cont: looseLocal(r, depth-1)}
	}
	if r.Intn(2) == 0 {
		return Send{Peer: peers[r.Intn(len(peers))], Branches: bs}
	}
	return Recv{Peer: peers[r.Intn(len(peers))], Branches: bs}
}

// looseGlobal is looseLocal for global types.
func looseGlobal(r *rand.Rand, depth int) Global {
	names := []string{"x", "y", "z"}
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return GEnd{}
		case 1:
			return GVar{Name: names[r.Intn(len(names))]}
		}
		return nil
	}
	switch r.Intn(6) {
	case 0:
		return GVar{Name: names[r.Intn(len(names))]}
	case 1, 2:
		return GRec{Name: names[r.Intn(len(names))], Body: looseGlobal(r, depth-1)}
	}
	roles := []Role{"p", "q", "r"}
	labels := []Label{"a", "b", "c"}
	bs := make([]GBranch, r.Intn(4))
	for i := range bs {
		bs[i] = GBranch{Label: labels[r.Intn(len(labels))], Sort: Unit, Cont: looseGlobal(r, depth-1)}
	}
	return Comm{From: roles[r.Intn(len(roles))], To: roles[r.Intn(len(roles))], Branches: bs}
}

func TestValidateLocalMatchesMapOracle(t *testing.T) {
	var cases []Local
	for _, src := range localSeeds {
		if l, err := Parse(src); err == nil {
			cases = append(cases, l)
		}
	}
	for _, src := range []string{"mu x.x", "mu x.mu y.x", "mu x.p!a.mu y.x", "mu x.p!a.mu x.x", "mu x.p!{a.x, a.end}", "y"} {
		cases = append(cases, MustParse(src))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		if i%2 == 0 {
			cases = append(cases, genLocal(r, 1+r.Intn(6), nil))
		} else {
			cases = append(cases, looseLocal(r, 1+r.Intn(6)))
		}
	}
	bad := 0
	for _, l := range cases {
		want := validateLocalMaps(l)
		if want != nil {
			bad++
		}
		if got := ValidateLocal(l); errText(got) != errText(want) {
			t.Errorf("ValidateLocal(%v) = %v, oracle %v", l, got, want)
		}
	}
	if bad < len(cases)/4 {
		t.Errorf("only %d of %d cases are malformed: the oracle sees too few errors", bad, len(cases))
	}
}

func TestValidateGlobalMatchesMapOracle(t *testing.T) {
	var cases []Global
	for _, src := range globalSeeds {
		if g, err := ParseGlobal(src); err == nil {
			cases = append(cases, g)
		}
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		cases = append(cases, looseGlobal(r, 1+r.Intn(6)))
	}
	bad := 0
	for _, g := range cases {
		want := validateGlobalMaps(g)
		if want != nil {
			bad++
		}
		if got := ValidateGlobal(g); errText(got) != errText(want) {
			t.Errorf("ValidateGlobal(%v) = %v, oracle %v", g, got, want)
		}
	}
	if bad < len(cases)/4 || bad == len(cases) {
		t.Errorf("%d of %d cases are malformed: the oracle sees too few errors or too few passes", bad, len(cases))
	}
}

func TestValidateAllocs(t *testing.T) {
	l := MustParse("mu x.k?ready.k!value(i32).mu y.t?{ready.t!value(i32).y, stop.x}")
	g := MustParseGlobal("mu x.k->s:ready.s->k:value.t->k:ready.k->t:{value.x, stop.end}")
	if n := testing.AllocsPerRun(100, func() { _ = ValidateLocal(l) }); n != 0 {
		t.Errorf("ValidateLocal allocates %.0f times on a well-formed type", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ValidateGlobal(g) }); n != 0 {
		t.Errorf("ValidateGlobal allocates %.0f times on a well-formed type", n)
	}
}

func TestNormalizeLocalShares(t *testing.T) {
	norm := MustParse("mu x.p!a(i32).q?{b.x, c.end}")
	if got := NormalizeLocal(norm); &got.(Rec).Body.(Send).Branches[0] != &norm.(Rec).Body.(Send).Branches[0] {
		t.Errorf("a normal type was copied")
	}
	// One empty sort deep in one branch copies only the path to it.
	kept := Recv{Peer: "q", Branches: []Branch{{Label: "b", Sort: Unit, Cont: End{}}}}
	raw := Send{Peer: "p", Branches: []Branch{
		{Label: "a", Sort: Unit, Cont: kept},
		{Label: "b", Sort: Unit, Cont: LSend("q", "m", Unit, Send{Peer: "q", Branches: []Branch{{Label: "n", Cont: End{}}}})},
	}}
	got := NormalizeLocal(raw).(Send)
	if &got.Branches[0] == &raw.Branches[0] {
		t.Fatal("the changed choice was not copied")
	}
	if &got.Branches[0].Cont.(Recv).Branches[0] != &kept.Branches[0] {
		t.Error("an unchanged branch was copied")
	}
	if want := "p!{a.q?{b.end}, b.q!{m.q!{n.end}}}"; got.String() != want {
		t.Errorf("NormalizeLocal = %s, want %s", got, want)
	}
	if raw.Branches[1].Cont.(Send).Branches[0].Cont.(Send).Branches[0].Sort != "" {
		t.Error("NormalizeLocal mutated its input")
	}
}
