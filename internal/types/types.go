package types

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Role identifies a protocol participant, e.g. "s", "k", "t".
type Role string

// Label identifies a message, e.g. "ready" or "value".
type Label string

// Sort is a payload type carried by a message. The subtyping relation on
// sorts (≤:) is the least reflexive relation with Nat ≤: Int, mirroring the
// paper's presentation.
type Sort string

// Predefined sorts. Unit is the payload of a bare label such as ready().
const (
	Unit Sort = "unit"
	Nat  Sort = "nat"
	Int  Sort = "int"
	I32  Sort = "i32"
	U32  Sort = "u32"
	I64  Sort = "i64"
	U64  Sort = "u64"
	F64  Sort = "f64"
	Str  Sort = "str"
	Bool Sort = "bool"
)

// SubSort reports whether s ≤: t, the sort subtyping of the paper: the least
// reflexive relation such that nat ≤: int.
func SubSort(s, t Sort) bool {
	if s == t {
		return true
	}
	return s == Nat && t == Int
}

// Local is a local (endpoint) session type: the protocol as seen by a single
// participant.
type Local interface {
	isLocal()
	// String renders the type in the package's concrete syntax.
	String() string
}

// End is the terminated session.
type End struct{}

// Var is a recursion variable bound by an enclosing Rec.
type Var struct{ Name string }

// Rec is the recursive type μName.Body.
type Rec struct {
	Name string
	Body Local
}

// Branch is a single labelled continuation of an internal or external choice.
type Branch struct {
	Label Label
	Sort  Sort
	Cont  Local
}

// Send is an internal choice ⊕ᵢ Peer!ℓᵢ(Sᵢ).Tᵢ. Branches must carry pairwise
// distinct labels.
type Send struct {
	Peer     Role
	Branches []Branch
}

// Recv is an external choice &ᵢ Peer?ℓᵢ(Sᵢ).Tᵢ. Branches must carry pairwise
// distinct labels.
type Recv struct {
	Peer     Role
	Branches []Branch
}

func (End) isLocal()  {}
func (Var) isLocal()  {}
func (Rec) isLocal()  {}
func (Send) isLocal() {}
func (Recv) isLocal() {}

func (End) String() string    { return "end" }
func (v Var) String() string  { return v.Name }
func (r Rec) String() string  { return localString(r) }
func (s Send) String() string { return localString(s) }
func (r Recv) String() string { return localString(r) }

// localString renders t in one pass, with no fmt.
func localString(t Local) string {
	var w localWriter
	w.local(t, nil)
	return string(w.buf)
}

// AlphaKey returns the concrete syntax of t with every recursion binder
// renamed to its canonical name, "@0" for the outermost binder in scope,
// "@1" for the next, and so on. Two local types are α-equivalent exactly
// when their keys are equal, so the key identifies α-variants in the
// subsync checker's hypothesis table and the optimiser's candidate dedup.
// Free variables keep their names (the "@" prefix is not valid in the
// concrete syntax, so canonical binders cannot capture them). The key is
// written in one pass, without building the renamed type.
func AlphaKey(t Local) string { return string(AppendAlphaKey(nil, t)) }

// AppendAlphaKey appends AlphaKey(t) to dst, so a caller keying many types
// can reuse one buffer.
func AppendAlphaKey(dst []byte, t Local) []byte {
	w := localWriter{buf: dst, alpha: true}
	w.local(t, nil)
	return w.buf
}

// localWriter appends local types' concrete syntax to buf. With alpha set
// it writes AlphaKey's canonical binder names.
type localWriter struct {
	buf   []byte
	alpha bool
}

// binder is one recursion binder in scope, linked to the next one out; the
// chain lives on the writer's call stack.
type binder struct {
	name  string
	depth int
	outer *binder
}

// local appends t, with the binders in scope innermost first. A nil
// continuation renders as fmt's %s would render it.
func (w *localWriter) local(t Local, scope *binder) {
	switch t := t.(type) {
	case End:
		w.buf = append(w.buf, "end"...)
	case Var:
		w.variable(t.Name, scope)
	case Rec:
		w.buf = append(w.buf, "mu "...)
		if !w.alpha {
			w.buf = append(w.buf, t.Name...)
			w.buf = append(w.buf, '.')
			w.local(t.Body, nil)
			return
		}
		b := binder{name: t.Name, outer: scope}
		if scope != nil {
			b.depth = scope.depth + 1
		}
		w.canonical(b.depth)
		w.buf = append(w.buf, '.')
		w.local(t.Body, &b)
	case Send:
		w.choice(t.Peer, '!', t.Branches, scope)
	case Recv:
		w.choice(t.Peer, '?', t.Branches, scope)
	case nil:
		w.buf = append(w.buf, "%!s(<nil>)"...)
	default:
		w.buf = append(w.buf, t.String()...)
	}
}

// variable appends a use of the recursion variable name: the canonical
// name of the innermost binder in scope with that name, else name.
func (w *localWriter) variable(name string, scope *binder) {
	for b := scope; b != nil; b = b.outer {
		if b.name == name {
			w.canonical(b.depth)
			return
		}
	}
	w.buf = append(w.buf, name...)
}

// canonical appends the canonical name of the binder at depth i.
func (w *localWriter) canonical(i int) {
	w.buf = append(w.buf, '@')
	w.buf = strconv.AppendInt(w.buf, int64(i), 10)
}

func (w *localWriter) choice(peer Role, op byte, branches []Branch, scope *binder) {
	w.buf = append(w.buf, peer...)
	w.buf = append(w.buf, op, '{')
	for i, br := range branches {
		if i > 0 {
			w.buf = append(w.buf, ", "...)
		}
		w.buf = append(w.buf, br.Label...)
		if br.Sort != Unit && br.Sort != "" {
			w.buf = append(w.buf, '(')
			w.buf = append(w.buf, br.Sort...)
			w.buf = append(w.buf, ')')
		}
		w.buf = append(w.buf, '.')
		w.local(br.Cont, scope)
	}
	w.buf = append(w.buf, '}')
}

// Global is a global session type describing a protocol from the perspective
// of all participants at once.
type Global interface {
	isGlobal()
	String() string
}

// GEnd is the terminated global protocol.
type GEnd struct{}

// GVar is a recursion variable bound by an enclosing GRec.
type GVar struct{ Name string }

// GRec is the recursive global type μName.Body.
type GRec struct {
	Name string
	Body Global
}

// GBranch is one labelled continuation of a global communication.
type GBranch struct {
	Label Label
	Sort  Sort
	Cont  Global
}

// Comm is the global interaction From → To : {ℓᵢ(Sᵢ).Gᵢ}. Labels must be
// pairwise distinct and From ≠ To.
type Comm struct {
	From, To Role
	Branches []GBranch
}

func (GEnd) isGlobal() {}
func (GVar) isGlobal() {}
func (GRec) isGlobal() {}
func (Comm) isGlobal() {}

func (GEnd) String() string   { return "end" }
func (v GVar) String() string { return v.Name }
func (r GRec) String() string { return fmt.Sprintf("mu %s.%s", r.Name, r.Body) }

func (c Comm) String() string {
	parts := make([]string, len(c.Branches))
	for i, b := range c.Branches {
		if b.Sort == Unit || b.Sort == "" {
			parts[i] = fmt.Sprintf("%s.%s", b.Label, b.Cont)
		} else {
			parts[i] = fmt.Sprintf("%s(%s).%s", b.Label, b.Sort, b.Cont)
		}
	}
	return fmt.Sprintf("%s->%s:{%s}", c.From, c.To, strings.Join(parts, ", "))
}

// Convenience constructors. They normalise empty sorts to Unit so that
// structural equality behaves predictably.

// LSend builds a single-branch internal choice peer!label(sort).cont.
func LSend(peer Role, label Label, sort Sort, cont Local) Local {
	return Send{Peer: peer, Branches: []Branch{{Label: label, Sort: normSort(sort), Cont: cont}}}
}

// LRecv builds a single-branch external choice peer?label(sort).cont.
func LRecv(peer Role, label Label, sort Sort, cont Local) Local {
	return Recv{Peer: peer, Branches: []Branch{{Label: label, Sort: normSort(sort), Cont: cont}}}
}

// GComm builds a single-branch global interaction from→to:label(sort).cont.
func GComm(from, to Role, label Label, sort Sort, cont Global) Global {
	return Comm{From: from, To: to, Branches: []GBranch{{Label: label, Sort: normSort(sort), Cont: cont}}}
}

func normSort(s Sort) Sort {
	if s == "" {
		return Unit
	}
	return s
}

// NormalizeLocal returns a copy of t with all empty sorts replaced by Unit.
func NormalizeLocal(t Local) Local {
	switch t := t.(type) {
	case End, Var:
		return t
	case Rec:
		return Rec{Name: t.Name, Body: NormalizeLocal(t.Body)}
	case Send:
		return Send{Peer: t.Peer, Branches: normBranches(t.Branches)}
	case Recv:
		return Recv{Peer: t.Peer, Branches: normBranches(t.Branches)}
	default:
		panic(fmt.Sprintf("types: unknown local type %T", t))
	}
}

func normBranches(bs []Branch) []Branch {
	out := make([]Branch, len(bs))
	for i, b := range bs {
		out[i] = Branch{Label: b.Label, Sort: normSort(b.Sort), Cont: NormalizeLocal(b.Cont)}
	}
	return out
}

// EqualLocal reports structural equality of two local types (recursion
// variables are compared by name; no α-conversion is performed).
func EqualLocal(a, b Local) bool { return localKey(a) == localKey(b) }

func localKey(t Local) string { return t.String() }

// SubstLocal substitutes repl for every free occurrence of the recursion
// variable name in t.
func SubstLocal(t Local, name string, repl Local) Local {
	switch t := t.(type) {
	case End:
		return t
	case Var:
		if t.Name == name {
			return repl
		}
		return t
	case Rec:
		if t.Name == name { // name is shadowed
			return t
		}
		return Rec{Name: t.Name, Body: SubstLocal(t.Body, name, repl)}
	case Send:
		return Send{Peer: t.Peer, Branches: substBranches(t.Branches, name, repl)}
	case Recv:
		return Recv{Peer: t.Peer, Branches: substBranches(t.Branches, name, repl)}
	default:
		panic(fmt.Sprintf("types: unknown local type %T", t))
	}
}

func substBranches(bs []Branch, name string, repl Local) []Branch {
	out := make([]Branch, len(bs))
	for i, b := range bs {
		out[i] = Branch{Label: b.Label, Sort: b.Sort, Cont: SubstLocal(b.Cont, name, repl)}
	}
	return out
}

// Unfold performs one step of recursion unfolding: μt.T becomes T[μt.T/t].
// Other types are returned unchanged. Repeated unfolding of a contractive type
// always reaches a non-Rec constructor.
func Unfold(t Local) Local {
	for {
		r, ok := t.(Rec)
		if !ok {
			return t
		}
		t = SubstLocal(r.Body, r.Name, r)
	}
}

// SubstGlobal substitutes repl for every free occurrence of name in g.
func SubstGlobal(g Global, name string, repl Global) Global {
	switch g := g.(type) {
	case GEnd:
		return g
	case GVar:
		if g.Name == name {
			return repl
		}
		return g
	case GRec:
		if g.Name == name {
			return g
		}
		return GRec{Name: g.Name, Body: SubstGlobal(g.Body, name, repl)}
	case Comm:
		out := make([]GBranch, len(g.Branches))
		for i, b := range g.Branches {
			out[i] = GBranch{Label: b.Label, Sort: b.Sort, Cont: SubstGlobal(b.Cont, name, repl)}
		}
		return Comm{From: g.From, To: g.To, Branches: out}
	default:
		panic(fmt.Sprintf("types: unknown global type %T", g))
	}
}

// FreeVars returns the free recursion variables of t, sorted.
func FreeVars(t Local) []string {
	set := map[string]bool{}
	freeVars(t, map[string]bool{}, set)
	return sortedKeys(set)
}

func freeVars(t Local, bound, out map[string]bool) {
	switch t := t.(type) {
	case End:
	case Var:
		if !bound[t.Name] {
			out[t.Name] = true
		}
	case Rec:
		inner := copyBoolMap(bound)
		inner[t.Name] = true
		freeVars(t.Body, inner, out)
	case Send:
		for _, b := range t.Branches {
			freeVars(b.Cont, bound, out)
		}
	case Recv:
		for _, b := range t.Branches {
			freeVars(b.Cont, bound, out)
		}
	}
}

func copyBoolMap(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ValidateLocal checks well-formedness of a local type: closed, contractive
// (every recursion variable is guarded by at least one communication), choices
// are non-empty with pairwise-distinct labels, and recursion binders are not
// shadowed confusingly (shadowing is permitted but empty choices are not).
func ValidateLocal(t Local) error {
	return validateLocal(t, map[string]bool{}, map[string]bool{})
}

// validateLocal walks t. bound holds binders in scope; unguarded holds binders
// seen since the last communication prefix (a Var hitting one of those is not
// contractive, e.g. μt.t or μt.μu.t).
func validateLocal(t Local, bound, unguarded map[string]bool) error {
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
		return validateLocal(t.Body, b, u)
	case Send:
		return validateChoice(t.Peer, t.Branches, bound)
	case Recv:
		return validateChoice(t.Peer, t.Branches, bound)
	default:
		return fmt.Errorf("types: unknown local type %T", t)
	}
}

func validateChoice(peer Role, branches []Branch, bound map[string]bool) error {
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
		// All binders become guarded once we pass a communication.
		if err := validateLocal(b.Cont, bound, map[string]bool{}); err != nil {
			return err
		}
	}
	return nil
}

// ValidateGlobal checks well-formedness of a global type: closed, contractive,
// non-empty directed choices with distinct labels, and From ≠ To in every
// interaction.
func ValidateGlobal(g Global) error {
	return validateGlobal(g, map[string]bool{}, map[string]bool{})
}

func validateGlobal(g Global, bound, unguarded map[string]bool) error {
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
		return validateGlobal(g.Body, b, u)
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
			if err := validateGlobal(b.Cont, bound, map[string]bool{}); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("types: unknown global type %T", g)
	}
}

// Roles returns the participants of a global type, sorted.
func Roles(g Global) []Role {
	set := map[Role]bool{}
	var walk func(Global)
	walk = func(g Global) {
		switch g := g.(type) {
		case Comm:
			set[g.From] = true
			set[g.To] = true
			for _, b := range g.Branches {
				walk(b.Cont)
			}
		case GRec:
			walk(g.Body)
		}
	}
	walk(g)
	out := make([]Role, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
