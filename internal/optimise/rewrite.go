package optimise

import (
	"slices"
	"strconv"

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

// rewrite is one move at one site: the subterm that replaces the site, plus
// the parts of a human-readable description of the step (for derivations
// and the cmd/optimise output).
type rewrite struct {
	t types.Local
	// unrolls is the pipelining depth this single step added (0 for hoists);
	// the search uses it to bound cumulative unrolling.
	unrolls int
	// The step sends peer!label: hoisted past a receive from past, or, for
	// a pipeline (unrolls > 0), out of the loop μrec.
	peer, past types.Role
	label      types.Label
	rec        string
}

// desc formats the step's description. The search calls it only for a
// candidate that survives its deduplication, so a duplicate costs no
// formatting.
func (r rewrite) desc() string {
	if r.unrolls > 0 {
		return "pipeline " + string(r.peer) + "!" + string(r.label) + " out of μ" + r.rec + " ×" + strconv.Itoa(r.unrolls)
	}
	return "hoist " + string(r.peer) + "!" + string(r.label) + " past " + string(r.past) + "?{…}"
}

// replaceAt returns t with the subterm at path replaced by sub, copying
// only the nodes on the path. path lists a branch index at each choice and
// 0 at each μ (its body), as types.AppendAlphaKeyAt reads it.
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

// hoistNode applies the in-place hoist at t, if t has its shape: at a node
// p?{ℓᵢ.Cᵢ} whose every continuation Cᵢ is a send to the same peer q
// offering the same labelled sorts {mⱼ(Uⱼ)}, the output choice moves in
// front of the input:
//
//	p?{ℓᵢ. q!{mⱼ(Uⱼ). Dᵢⱼ}}  →  q!{mⱼ(Uⱼ). p?{ℓᵢ. Dᵢⱼ}}
//
// The move commits the output before the input is seen, which is exactly
// what rule ⤳B permits (outputs may be anticipated before any inputs);
// whether the commitment is safe in context is decided by certification.
// A node of any other shape costs no allocation.
func hoistNode(t types.Local) (rewrite, bool) {
	rv, ok := t.(types.Recv)
	if !ok || len(rv.Branches) == 0 {
		return rewrite{}, false
	}
	first, ok := rv.Branches[0].Cont.(types.Send)
	if !ok || len(first.Branches) == 0 {
		return rewrite{}, false
	}
	// Every input branch must continue with a send to the same peer offering
	// the same (label, sort) list, in the same order.
	for _, b := range rv.Branches[1:] {
		s, ok := b.Cont.(types.Send)
		if !ok || s.Peer != first.Peer || len(s.Branches) != len(first.Branches) {
			return rewrite{}, false
		}
		for j := range s.Branches {
			if s.Branches[j].Label != first.Branches[j].Label || s.Branches[j].Sort != first.Branches[j].Sort {
				return rewrite{}, false
			}
		}
	}
	// The output branches and every input choice under them share one
	// array, each slice capped at its own length.
	m, n := len(first.Branches), len(rv.Branches)
	buf := make([]types.Branch, m+m*n)
	out := buf[:m:m]
	for j, ob := range first.Branches {
		inner := buf[m+j*n : m+(j+1)*n : m+(j+1)*n]
		for i, ib := range rv.Branches {
			inner[i] = types.Branch{Label: ib.Label, Sort: ib.Sort, Cont: ib.Cont.(types.Send).Branches[j].Cont}
		}
		out[j] = types.Branch{Label: ob.Label, Sort: ob.Sort, Cont: types.Recv{Peer: rv.Peer, Branches: inner}}
	}
	return rewrite{t: types.Send{Peer: first.Peer, Branches: out}, peer: first.Peer, label: first.Branches[0].Label, past: rv.Peer}, true
}

// input is one single-branch receive of a loop's input prefix.
type input struct {
	peer  types.Role
	label types.Label
	sort  types.Sort
}

// pipelineNode appends to out every application of the loop-pipelining move
// at depth d to t, when t is a Rec. At μx. I₁…Iₘ. q!{…} — a loop
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
func pipelineNode(out []rewrite, t types.Local, d int) []rewrite {
	rec, ok := t.(types.Rec)
	if !ok {
		return out
	}
	// Find the send the input prefix runs into, and record the prefix only
	// when the loop has a move.
	m := 0
	cur := rec.Body
	for {
		rv, ok := cur.(types.Recv)
		if !ok || len(rv.Branches) != 1 {
			break
		}
		m++
		cur = rv.Branches[0].Cont
	}
	snd, ok := cur.(types.Send)
	if !ok || !pipelinable(snd, rec.Name) {
		return out
	}
	pre := make([]input, m)
	cur = rec.Body
	for i := range pre {
		rv := cur.(types.Recv)
		b := rv.Branches[0]
		pre[i] = input{peer: rv.Peer, label: b.Label, sort: b.Sort}
		cur = b.Cont
	}
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
		out = append(out, rewrite{t: cand, unrolls: d, peer: snd.Peer, label: b.Label, rec: rec.Name})
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
			out = append(out, rewrite{t: cand, unrolls: d, peer: snd.Peer, label: b.Label, rec: rec.Name})
		}
	}
	return out
}

// pipelinable reports whether the loop μname's send snd has a pipelining
// move: a branch looping straight back, or a single branch continuing into
// the rest of the body.
func pipelinable(snd types.Send, name string) bool {
	if len(snd.Branches) == 1 {
		if _, isVar := snd.Branches[0].Cont.(types.Var); !isVar {
			return true
		}
	}
	for _, b := range snd.Branches {
		if v, ok := b.Cont.(types.Var); ok && v.Name == name {
			return true
		}
	}
	return false
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
