package types

import "strconv"

// AlphaEqualLocal reports equality of two local types up to consistent
// renaming of recursion variables (α-equivalence). Structural equality
// (EqualLocal) distinguishes μx.p!a.x from μy.p!a.y; this does not.
func AlphaEqualLocal(a, b Local) bool {
	return alphaLocal(a, b, nil)
}

// AlphaCanonicalLocal returns t with every recursion binder renamed to a
// canonical name determined by its binding depth ("@0" for the outermost
// binder in scope, "@1" for the next, and so on). Two local types are
// α-equivalent exactly when their canonical forms are structurally equal, so
// AlphaCanonicalLocal(t).String() is a memoisation key that identifies
// α-variants — the key the subsync checker and the optimiser's candidate
// dedup use. Free variables keep their names (the "@" prefix is not valid in
// the concrete syntax, so canonical binders cannot capture them).
func AlphaCanonicalLocal(t Local) Local {
	return alphaCanonLocal(t, 0, nil)
}

func alphaCanonLocal(t Local, depth int, env map[string]string) Local {
	switch t := t.(type) {
	case End:
		return t
	case Var:
		if n, ok := env[t.Name]; ok {
			return Var{Name: n}
		}
		return t
	case Rec:
		name := "@" + strconv.Itoa(depth)
		inner := make(map[string]string, len(env)+1)
		for k, v := range env {
			inner[k] = v
		}
		inner[t.Name] = name
		return Rec{Name: name, Body: alphaCanonLocal(t.Body, depth+1, inner)}
	case Send:
		return Send{Peer: t.Peer, Branches: alphaCanonBranches(t.Branches, depth, env)}
	case Recv:
		return Recv{Peer: t.Peer, Branches: alphaCanonBranches(t.Branches, depth, env)}
	default:
		return t
	}
}

func alphaCanonBranches(bs []Branch, depth int, env map[string]string) []Branch {
	out := make([]Branch, len(bs))
	for i, b := range bs {
		out[i] = Branch{Label: b.Label, Sort: normSort(b.Sort), Cont: alphaCanonLocal(b.Cont, depth, env)}
	}
	return out
}

// binding pairs one binder of a with the corresponding binder of b; the list
// is searched innermost-first, giving de Bruijn–style matching.
type binding struct {
	a, b string
	next *binding
}

func (env *binding) lookup(a, b string) (bound, matched bool) {
	for e := env; e != nil; e = e.next {
		if e.a == a || e.b == b {
			return true, e.a == a && e.b == b
		}
	}
	return false, false
}

func alphaLocal(a, b Local, env *binding) bool {
	switch a := a.(type) {
	case End:
		_, ok := b.(End)
		return ok
	case Var:
		bv, ok := b.(Var)
		if !ok {
			return false
		}
		bound, matched := env.lookup(a.Name, bv.Name)
		if bound {
			return matched
		}
		return a.Name == bv.Name // both free: names must agree
	case Rec:
		br, ok := b.(Rec)
		if !ok {
			return false
		}
		return alphaLocal(a.Body, br.Body, &binding{a: a.Name, b: br.Name, next: env})
	case Send:
		bs, ok := b.(Send)
		if !ok || bs.Peer != a.Peer {
			return false
		}
		return alphaBranches(a.Branches, bs.Branches, env)
	case Recv:
		bs, ok := b.(Recv)
		if !ok || bs.Peer != a.Peer {
			return false
		}
		return alphaBranches(a.Branches, bs.Branches, env)
	default:
		return false
	}
}

func alphaBranches(as, bs []Branch, env *binding) bool {
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i].Label != bs[i].Label || normSort(as[i].Sort) != normSort(bs[i].Sort) {
			return false
		}
		if !alphaLocal(as[i].Cont, bs[i].Cont, env) {
			return false
		}
	}
	return true
}

func alphaGlobal(a, b Global, env *binding) bool {
	switch a := a.(type) {
	case GEnd:
		_, ok := b.(GEnd)
		return ok
	case GVar:
		bv, ok := b.(GVar)
		if !ok {
			return false
		}
		bound, matched := env.lookup(a.Name, bv.Name)
		if bound {
			return matched
		}
		return a.Name == bv.Name
	case GRec:
		br, ok := b.(GRec)
		if !ok {
			return false
		}
		return alphaGlobal(a.Body, br.Body, &binding{a: a.Name, b: br.Name, next: env})
	case Comm:
		bc, ok := b.(Comm)
		if !ok || bc.From != a.From || bc.To != a.To || len(bc.Branches) != len(a.Branches) {
			return false
		}
		for i := range a.Branches {
			if a.Branches[i].Label != bc.Branches[i].Label || normSort(a.Branches[i].Sort) != normSort(bc.Branches[i].Sort) {
				return false
			}
			if !alphaGlobal(a.Branches[i].Cont, bc.Branches[i].Cont, env) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
