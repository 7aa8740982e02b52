package optimise

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// This file enumerates the AMR rewrite moves the optimiser searches over.
// Every move is a *candidate generator* only: nothing here is trusted for
// soundness. A generated type either passes core.Check against the original
// (and may be returned) or is discarded — see Optimise.
//
// The two move families mirror the shapes of the paper's hand-written
// optimisations (§2.1, §4.1, Appendix B):
//
//   - hoist: commute an output past an immediately preceding input choice
//     (rule ⤳B's in-place form). μt.a?v.c!v.t becomes μt.c!v.a?v.t; the
//     Appendix B.4 ring-with-choice and the Elevator controller are the
//     branching instances.
//
//   - pipeline: hoist one send of a loop body out of the loop, d times (the
//     recursion-unrolling optimisation): the streaming source t!value.μx.…
//     and the double-buffering kernel s!ready.μx.… . Loop exits are patched
//     with the inputs the hoisted copies ran ahead of, so the overhang is
//     reconciled when the protocol stops.

// rewrite is one candidate produced by a generator: the whole rewritten type
// plus a human-readable description of the step (for derivations and the
// cmd/optimise output).
type rewrite struct {
	t types.Local
	// unrolls is the pipelining depth this single step added (0 for hoists);
	// the search uses it to bound cumulative unrolling.
	unrolls int
	desc    string
}

// rewriteEverywhere applies the node-level generator f at every subterm
// position of t, in pre-order, appending one whole-type rewrite per
// application site to out. Each rewrite copies only the nodes on the path
// from the root to its site.
func rewriteEverywhere(out []rewrite, t types.Local, f func(types.Local) []rewrite) []rewrite {
	w := siteWalker{root: t, f: f, out: out}
	w.walk(t)
	return w.out
}

// siteWalker visits the subterms of root, tracking the branch indices
// from the root to the current one (0 for a μ body).
type siteWalker struct {
	root types.Local
	f    func(types.Local) []rewrite
	path []int
	out  []rewrite
}

func (w *siteWalker) walk(n types.Local) {
	for _, r := range w.f(n) {
		r.t = replaceAt(w.root, w.path, r.t)
		w.out = append(w.out, r)
	}
	var bs []types.Branch
	switch n := n.(type) {
	case types.Rec:
		w.path = append(w.path, 0)
		w.walk(n.Body)
		w.path = w.path[:len(w.path)-1]
		return
	case types.Send:
		bs = n.Branches
	case types.Recv:
		bs = n.Branches
	}
	for i := range bs {
		w.path = append(w.path, i)
		w.walk(bs[i].Cont)
		w.path = w.path[:len(w.path)-1]
	}
}

// replaceAt returns t with the subterm at path replaced by sub.
func replaceAt(t types.Local, path []int, sub types.Local) types.Local {
	if len(path) == 0 {
		return sub
	}
	switch t := t.(type) {
	case types.Rec:
		return types.Rec{Name: t.Name, Body: replaceAt(t.Body, path[1:], sub)}
	case types.Send:
		return types.Send{Peer: t.Peer, Branches: replaceBranch(t.Branches, path, sub)}
	case types.Recv:
		return types.Recv{Peer: t.Peer, Branches: replaceBranch(t.Branches, path, sub)}
	}
	panic("optimise: rewrite path runs through a leaf")
}

func replaceBranch(bs []types.Branch, path []int, sub types.Local) []types.Branch {
	nb := slices.Clone(bs)
	nb[path[0]].Cont = replaceAt(bs[path[0]].Cont, path[1:], sub)
	return nb
}

// hoists returns every single application of the in-place hoist anywhere in
// t: at a node p?{ℓᵢ.Cᵢ} whose every continuation Cᵢ is a send to the same
// peer q offering the same labelled sorts {mⱼ(Uⱼ)}, the output choice moves
// in front of the input:
//
//	p?{ℓᵢ. q!{mⱼ(Uⱼ). Dᵢⱼ}}  →  q!{mⱼ(Uⱼ). p?{ℓᵢ. Dᵢⱼ}}
//
// The move commits the output before the input is seen, which is exactly
// what rule ⤳B permits (outputs may be anticipated before any inputs);
// whether the commitment is safe in context is decided by certification.
func hoists(t types.Local) []rewrite {
	return rewriteEverywhere(nil, t, hoistNode)
}

func hoistNode(t types.Local) []rewrite {
	rv, ok := t.(types.Recv)
	if !ok || len(rv.Branches) == 0 {
		return nil
	}
	first, ok := rv.Branches[0].Cont.(types.Send)
	if !ok || len(first.Branches) == 0 {
		return nil
	}
	// Every input branch must continue with a send to the same peer offering
	// the same (label, sort) list, in the same order.
	sends := make([]types.Send, len(rv.Branches))
	for i, b := range rv.Branches {
		s, ok := b.Cont.(types.Send)
		if !ok || s.Peer != first.Peer || len(s.Branches) != len(first.Branches) {
			return nil
		}
		for j := range s.Branches {
			if s.Branches[j].Label != first.Branches[j].Label || s.Branches[j].Sort != first.Branches[j].Sort {
				return nil
			}
		}
		sends[i] = s
	}
	out := make([]types.Branch, len(first.Branches))
	for j, ob := range first.Branches {
		inner := make([]types.Branch, len(rv.Branches))
		for i, ib := range rv.Branches {
			inner[i] = types.Branch{Label: ib.Label, Sort: ib.Sort, Cont: sends[i].Branches[j].Cont}
		}
		out[j] = types.Branch{Label: ob.Label, Sort: ob.Sort, Cont: types.Recv{Peer: rv.Peer, Branches: inner}}
	}
	desc := fmt.Sprintf("hoist %s!%s past %s?{…}", first.Peer, first.Branches[0].Label, rv.Peer)
	return []rewrite{{t: types.Send{Peer: first.Peer, Branches: out}, desc: desc}}
}

// input is one single-branch receive of a loop's input prefix.
type input struct {
	peer  types.Role
	label types.Label
	sort  types.Sort
}

// pipelines returns every application of the loop-pipelining move at any Rec
// subterm, for every depth 1 ≤ d ≤ maxDepth. At μx. I₁…Iₘ. q!{…} — a loop
// whose body runs a straight-line prefix of single-branch inputs into a send
// — one send label is hoisted out of the loop d times:
//
//   - a branch ℓ looping straight back (cont = x) yields
//     q!ℓᵈ. μx. I₁…Iₘ. q!{ℓ.x, ℓ′. I^d. …}: the loop runs d iterations
//     ahead, and every *other* branch (the loop's exits) is patched with d
//     copies of the input prefix — the receives the hoisted sends overtook,
//     consumed when the protocol leaves the loop (the paper's optimised
//     streaming source consumes its outstanding ready after stop this way).
//
//   - a single-branch send with an arbitrary continuation yields
//     q!ℓᵈ. μx.B with every End inside the body patched the same way (the
//     double-buffering kernel, whose hoisted ready precedes any input, needs
//     no patch at all).
func pipelines(t types.Local, maxDepth int) []rewrite {
	var out []rewrite
	for d := 1; d <= maxDepth; d++ {
		d := d
		out = rewriteEverywhere(out, t, func(n types.Local) []rewrite { return pipelineNode(n, d) })
	}
	return out
}

func pipelineNode(t types.Local, d int) []rewrite {
	rec, ok := t.(types.Rec)
	if !ok {
		return nil
	}
	var pre []input
	cur := rec.Body
	for {
		rv, ok := cur.(types.Recv)
		if !ok || len(rv.Branches) != 1 {
			break
		}
		b := rv.Branches[0]
		pre = append(pre, input{peer: rv.Peer, label: b.Label, sort: b.Sort})
		cur = b.Cont
	}
	snd, ok := cur.(types.Send)
	if !ok {
		return nil
	}
	var out []rewrite
	for idx, b := range snd.Branches {
		v, ok := b.Cont.(types.Var)
		if !ok || v.Name != rec.Name {
			continue
		}
		// Straight self-loop branch: hoist its send, patch the other
		// branches (the exits) with the overtaken input prefix.
		nb := make([]types.Branch, len(snd.Branches))
		for j, b2 := range snd.Branches {
			if j == idx {
				nb[j] = b2
				continue
			}
			nb[j] = types.Branch{Label: b2.Label, Sort: b2.Sort, Cont: prependInputs(pre, d, b2.Cont)}
		}
		body := rebuildPrefix(pre, types.Send{Peer: snd.Peer, Branches: nb})
		cand := types.Local(types.Rec{Name: rec.Name, Body: body})
		for k := 0; k < d; k++ {
			cand = types.LSend(snd.Peer, b.Label, b.Sort, cand)
		}
		out = append(out, rewrite{
			t:       cand,
			unrolls: d,
			desc:    fmt.Sprintf("pipeline %s!%s out of μ%s ×%d", snd.Peer, b.Label, rec.Name, d),
		})
	}
	if len(snd.Branches) == 1 {
		if _, isVar := snd.Branches[0].Cont.(types.Var); !isVar {
			// Single-branch send continuing into the rest of the body: hoist
			// it and patch every exit (End) inside the remaining body.
			b := snd.Branches[0]
			patched := patchEnds(b.Cont, pre, d)
			body := rebuildPrefix(pre, types.Send{Peer: snd.Peer, Branches: []types.Branch{{Label: b.Label, Sort: b.Sort, Cont: patched}}})
			cand := types.Local(types.Rec{Name: rec.Name, Body: body})
			for k := 0; k < d; k++ {
				cand = types.LSend(snd.Peer, b.Label, b.Sort, cand)
			}
			out = append(out, rewrite{
				t:       cand,
				unrolls: d,
				desc:    fmt.Sprintf("pipeline %s!%s out of μ%s ×%d", snd.Peer, b.Label, rec.Name, d),
			})
		}
	}
	return out
}

// rebuildPrefix re-wraps cont in the recorded single-branch input prefix.
func rebuildPrefix(pre []input, cont types.Local) types.Local {
	for i := len(pre) - 1; i >= 0; i-- {
		cont = types.LRecv(pre[i].peer, pre[i].label, pre[i].sort, cont)
	}
	return cont
}

// prependInputs prefixes cont with d copies of the input sequence.
func prependInputs(pre []input, d int, cont types.Local) types.Local {
	for k := 0; k < d; k++ {
		cont = rebuildPrefix(pre, cont)
	}
	return cont
}

// patchEnds prepends d copies of the input prefix before every End in t.
func patchEnds(t types.Local, pre []input, d int) types.Local {
	if len(pre) == 0 {
		return t
	}
	switch t := t.(type) {
	case types.End:
		return prependInputs(pre, d, t)
	case types.Var:
		return t
	case types.Rec:
		return types.Rec{Name: t.Name, Body: patchEnds(t.Body, pre, d)}
	case types.Send:
		return types.Send{Peer: t.Peer, Branches: patchEndsBranches(t.Branches, pre, d)}
	case types.Recv:
		return types.Recv{Peer: t.Peer, Branches: patchEndsBranches(t.Branches, pre, d)}
	default:
		return t
	}
}

func patchEndsBranches(bs []types.Branch, pre []input, d int) []types.Branch {
	out := make([]types.Branch, len(bs))
	for i, b := range bs {
		out[i] = types.Branch{Label: b.Label, Sort: b.Sort, Cont: patchEnds(b.Cont, pre, d)}
	}
	return out
}

// straighten normalises a candidate so that differently derived but
// equivalent shapes dedup: directly nested binders μx.μy.B collapse to one
// self-loop binder (μx.B[y:=x]) and binders whose variable no longer occurs
// are dropped. Pipelined candidates produce such shapes when a rewrite
// straightens a loop whose inner structure carried its own μ. Subterms with
// nothing to normalise are shared, not copied.
func straighten(t types.Local) types.Local {
	t, _ = straightened(t)
	return t
}

// straightened is straighten, also reporting whether anything changed.
func straightened(t types.Local) (types.Local, bool) {
	switch t := t.(type) {
	case types.Rec:
		body, changed := straightened(t.Body)
		for {
			inner, ok := body.(types.Rec)
			if !ok {
				break
			}
			body, changed = types.SubstLocal(inner.Body, inner.Name, types.Var{Name: t.Name}), true
		}
		if !occursFree(body, t.Name) {
			return body, true
		}
		if !changed {
			return t, false
		}
		return types.Rec{Name: t.Name, Body: body}, true
	case types.Send:
		if bs, changed := straightenBranches(t.Branches); changed {
			return types.Send{Peer: t.Peer, Branches: bs}, true
		}
	case types.Recv:
		if bs, changed := straightenBranches(t.Branches); changed {
			return types.Recv{Peer: t.Peer, Branches: bs}, true
		}
	}
	return t, false
}

// straightenBranches straightens every continuation, copying bs only when
// one changed.
func straightenBranches(bs []types.Branch) ([]types.Branch, bool) {
	var out []types.Branch
	for i, b := range bs {
		if cont, changed := straightened(b.Cont); changed {
			if out == nil {
				out = slices.Clone(bs)
			}
			out[i].Cont = cont
		}
	}
	return out, out != nil
}

// occursFree reports whether the variable name occurs free in t.
func occursFree(t types.Local, name string) bool {
	switch t := t.(type) {
	case types.Var:
		return t.Name == name
	case types.Rec:
		return t.Name != name && occursFree(t.Body, name)
	case types.Send:
		return branchesOccur(t.Branches, name)
	case types.Recv:
		return branchesOccur(t.Branches, name)
	}
	return false
}

func branchesOccur(bs []types.Branch, name string) bool {
	for _, b := range bs {
		if occursFree(b.Cont, name) {
			return true
		}
	}
	return false
}
