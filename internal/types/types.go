package types

import (
	"fmt"
	"slices"
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

// AppendAlphaKeyAt appends the AlphaKey of root with the subterm at path
// replaced by sub, without building that type: a caller can key a rewrite
// and build it only if the key is new. path lists the steps from root to
// the subterm, a branch index at each choice and 0 at each μ (its body);
// it must name a subterm of root.
func AppendAlphaKeyAt(dst []byte, root Local, path []int, sub Local) []byte {
	w := localWriter{buf: dst, alpha: true}
	w.at(root, path, sub, nil)
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
		if !w.alpha {
			w.buf = append(w.buf, "mu "...)
			w.buf = append(w.buf, t.Name...)
			w.buf = append(w.buf, '.')
			w.local(t.Body, nil)
			return
		}
		b := w.open(t.Name, scope)
		w.local(t.Body, &b)
	case Send:
		w.choice(t.Peer, '!', t.Branches, scope, nil, nil)
	case Recv:
		w.choice(t.Peer, '?', t.Branches, scope, nil, nil)
	case nil:
		w.buf = append(w.buf, "%!s(<nil>)"...)
	default:
		w.buf = append(w.buf, t.String()...)
	}
}

// open appends the head "mu @i." of an α-keyed binder for name and
// returns the binder, to be put in scope for the body.
func (w *localWriter) open(name string, scope *binder) binder {
	b := binder{name: name, outer: scope}
	if scope != nil {
		b.depth = scope.depth + 1
	}
	w.buf = append(w.buf, "mu "...)
	w.canonical(b.depth)
	w.buf = append(w.buf, '.')
	return b
}

// at appends the α-key of t with the subterm at path replaced by sub.
func (w *localWriter) at(t Local, path []int, sub Local, scope *binder) {
	if len(path) == 0 {
		w.local(sub, scope)
		return
	}
	switch t := t.(type) {
	case Rec:
		b := w.open(t.Name, scope)
		w.at(t.Body, path[1:], sub, &b)
		return
	case Send:
		if path[0] < len(t.Branches) {
			w.choice(t.Peer, '!', t.Branches, scope, path, sub)
			return
		}
	case Recv:
		if path[0] < len(t.Branches) {
			w.choice(t.Peer, '?', t.Branches, scope, path, sub)
			return
		}
	}
	panic("types: key path leaves the type")
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

// choice appends a choice; with path set, the continuation of branch
// path[0] is written with the subterm at path[1:] replaced by sub.
func (w *localWriter) choice(peer Role, op byte, branches []Branch, scope *binder, path []int, sub Local) {
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
		if len(path) > 0 && path[0] == i {
			w.at(br.Cont, path[1:], sub, scope)
		} else {
			w.local(br.Cont, scope)
		}
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

// NormalizeLocal returns t with all empty sorts replaced by Unit. Subterms
// with no empty sort are shared with t, not copied, so a type that is
// already normal comes back as itself.
func NormalizeLocal(t Local) Local {
	t, _ = normalized(t)
	return t
}

// normalized is NormalizeLocal, also reporting whether anything changed.
func normalized(t Local) (Local, bool) {
	switch t := t.(type) {
	case End, Var:
		return t, false
	case Rec:
		if body, changed := normalized(t.Body); changed {
			return Rec{Name: t.Name, Body: body}, true
		}
		return t, false
	case Send:
		if bs, changed := normBranches(t.Branches); changed {
			return Send{Peer: t.Peer, Branches: bs}, true
		}
		return t, false
	case Recv:
		if bs, changed := normBranches(t.Branches); changed {
			return Recv{Peer: t.Peer, Branches: bs}, true
		}
		return t, false
	default:
		panic(fmt.Sprintf("types: unknown local type %T", t))
	}
}

// normBranches normalises every branch, copying bs only when one changed.
func normBranches(bs []Branch) ([]Branch, bool) {
	var out []Branch
	for i, b := range bs {
		cont, changed := normalized(b.Cont)
		if !changed && b.Sort != "" {
			continue
		}
		if out == nil {
			out = slices.Clone(bs)
		}
		out[i] = Branch{Label: b.Label, Sort: normSort(b.Sort), Cont: cont}
	}
	return out, out != nil
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
// The walk keeps its binders on the call stack and allocates only for an
// error.
func ValidateLocal(t Local) error {
	return validLocal(t, nil, nil)
}

// checkVar reports the error, if any, of a use of the variable name under
// the binders scope, innermost first. guard is the innermost binder opened
// before the last communication prefix: binders inside it are unguarded,
// so a variable bound by one is not contractive (μt.t, μt.μu.t). The
// innermost binder named name decides.
func checkVar(name string, scope, guard *binder) error {
	guarded := false
	for b := scope; b != nil; b = b.outer {
		guarded = guarded || b == guard
		if b.name == name {
			if !guarded {
				return fmt.Errorf("types: non-contractive recursion through %q", name)
			}
			return nil
		}
	}
	return fmt.Errorf("types: unbound recursion variable %q", name)
}

func validLocal(t Local, scope, guard *binder) error {
	switch t := t.(type) {
	case End:
		return nil
	case Var:
		return checkVar(t.Name, scope, guard)
	case Rec:
		return validLocal(t.Body, &binder{name: t.Name, outer: scope}, guard)
	case Send:
		return validChoice(t.Peer, t.Branches, scope)
	case Recv:
		return validChoice(t.Peer, t.Branches, scope)
	default:
		return fmt.Errorf("types: unknown local type %T", t)
	}
}

func validChoice(peer Role, branches []Branch, scope *binder) error {
	if peer == "" {
		return fmt.Errorf("types: empty peer role")
	}
	if len(branches) == 0 {
		return fmt.Errorf("types: empty choice towards %s", peer)
	}
	for i, b := range branches {
		if b.Label == "" {
			return fmt.Errorf("types: empty label in choice towards %s", peer)
		}
		for _, prev := range branches[:i] {
			if prev.Label == b.Label {
				return fmt.Errorf("types: duplicate label %q in choice towards %s", b.Label, peer)
			}
		}
		// All binders become guarded once we pass a communication.
		if err := validLocal(b.Cont, scope, scope); err != nil {
			return err
		}
	}
	return nil
}

// ValidateGlobal checks well-formedness of a global type: closed, contractive,
// non-empty directed choices with distinct labels, and From ≠ To in every
// interaction. Like ValidateLocal, it allocates only for an error.
func ValidateGlobal(g Global) error {
	return validGlobal(g, nil, nil)
}

func validGlobal(g Global, scope, guard *binder) error {
	switch g := g.(type) {
	case GEnd:
		return nil
	case GVar:
		return checkVar(g.Name, scope, guard)
	case GRec:
		return validGlobal(g.Body, &binder{name: g.Name, outer: scope}, guard)
	case Comm:
		if g.From == g.To {
			return fmt.Errorf("types: self-communication %s -> %s", g.From, g.To)
		}
		if len(g.Branches) == 0 {
			return fmt.Errorf("types: empty interaction %s -> %s", g.From, g.To)
		}
		for i, b := range g.Branches {
			for _, prev := range g.Branches[:i] {
				if prev.Label == b.Label {
					return fmt.Errorf("types: duplicate label %q in %s -> %s", b.Label, g.From, g.To)
				}
			}
			if err := validGlobal(b.Cont, scope, scope); err != nil {
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
