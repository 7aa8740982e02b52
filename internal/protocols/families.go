package protocols

import (
	"fmt"

	"repro/internal/fsm"
	"repro/internal/types"
)

// This file defines the parameterised protocol families benchmarked in
// Fig. 7 of the paper.

// StreamingUnrolled returns the subtyping instance of the Fig. 7 streaming
// benchmark: the optimised source unrolls n value sends ahead of their
// readys. It returns (optimised, projected) local types for the source.
func StreamingUnrolled(n int) (sub, sup types.Local) {
	sup = types.MustParse("mu x.t?ready.t!value.x")
	sub = sup
	for i := 0; i < n; i++ {
		sub = types.LSend("t", "value", types.Unit, sub)
	}
	return sub, sup
}

// StreamingUnrolledSystem returns the optimised source machine together with
// the sink, the system the k-MC tool checks for the same benchmark. The
// system is k-MC only for k > n, so callers pass bound n+1.
func StreamingUnrolledSystem(n int) []*fsm.FSM {
	sub, _ := StreamingUnrolled(n)
	source := fsm.MustFromLocal("s", sub)
	sink := fsm.MustFromLocal("t", types.MustParse("mu x.s!ready.s?value.x"))
	return []*fsm.FSM{source, sink}
}

// KBuffering generalises double buffering to n buffers (Fig. 7's last plot):
// the kernel unrolls n ready sends ahead. It returns (optimised, projected)
// local types for the kernel.
func KBuffering(n int) (sub, sup types.Local) {
	sup = types.MustParse("mu x.s!ready.s?value.t?ready.t!value.x")
	sub = sup
	for i := 0; i < n; i++ {
		sub = types.LSend("s", "ready", types.Unit, sub)
	}
	return sub, sup
}

// KBufferingSystem returns the optimised kernel with the source and sink of
// the double-buffering protocol, for the k-MC side of the benchmark.
func KBufferingSystem(n int) []*fsm.FSM {
	sub, _ := KBuffering(n)
	kernel := fsm.MustFromLocal("k", sub)
	source := fsm.MustFromLocal("s", types.MustParse("mu x.k?ready.k!value.x"))
	sink := fsm.MustFromLocal("t", types.MustParse("mu x.k!ready.k?value.x"))
	return []*fsm.FSM{kernel, source, sink}
}

// NestedChoice builds the nested-choice family of Chen et al. [13, Fig. 3],
// as used in Fig. 7:
//
//	T₀ = T′₀ = end
//	Tₙ₊₁  = !m.(?r.Tₙ & ?s.Tₙ & ?u.Tₙ) ⊕ !p.(?r.Tₙ & ?s.Tₙ)
//	T′ₙ₊₁ = ?r.(!m.T′ₙ ⊕ !p.T′ₙ ⊕ !q.T′ₙ) & ?s.(!m.T′ₙ ⊕ !p.T′ₙ)
//
// It returns (Tₙ, T′ₙ); the benchmark checks Tₙ ≤ T′ₙ.
func NestedChoice(n int) (sub, sup types.Local) {
	const o = types.Role("o")
	sub, sup = types.End{}, types.End{}
	for i := 0; i < n; i++ {
		inputsBig := types.Recv{Peer: o, Branches: []types.Branch{
			{Label: "r", Sort: types.Unit, Cont: sub},
			{Label: "s", Sort: types.Unit, Cont: sub},
			{Label: "u", Sort: types.Unit, Cont: sub},
		}}
		inputsSmall := types.Recv{Peer: o, Branches: []types.Branch{
			{Label: "r", Sort: types.Unit, Cont: sub},
			{Label: "s", Sort: types.Unit, Cont: sub},
		}}
		sub = types.Send{Peer: o, Branches: []types.Branch{
			{Label: "m", Sort: types.Unit, Cont: inputsBig},
			{Label: "p", Sort: types.Unit, Cont: inputsSmall},
		}}

		outBig := types.Send{Peer: o, Branches: []types.Branch{
			{Label: "m", Sort: types.Unit, Cont: sup},
			{Label: "p", Sort: types.Unit, Cont: sup},
			{Label: "q", Sort: types.Unit, Cont: sup},
		}}
		outSmall := types.Send{Peer: o, Branches: []types.Branch{
			{Label: "m", Sort: types.Unit, Cont: sup},
			{Label: "p", Sort: types.Unit, Cont: sup},
		}}
		sup = types.Recv{Peer: o, Branches: []types.Branch{
			{Label: "r", Sort: types.Unit, Cont: outBig},
			{Label: "s", Sort: types.Unit, Cont: outSmall},
		}}
	}
	return sub, sup
}

// NestedChoiceSystem returns the pair {Tₙ-machine, dual-of-T′ₙ-machine} used
// for the k-MC side of the nested-choice benchmark.
func NestedChoiceSystem(n int) []*fsm.FSM {
	sub, sup := NestedChoice(n)
	self := fsm.MustFromLocal("o2", sub)
	peer := fsm.MustFromLocal("o", dualOf(renamePeer(sup, "o", "o2")))
	return []*fsm.FSM{self, peer}
}

// RingRole returns the role name of ring participant i.
func RingRole(i int) types.Role { return types.Role(fmt.Sprintf("r%d", i)) }

// RingN builds the n-participant ring of Fig. 7: participant 0 initiates by
// sending to participant 1; every other participant receives from its
// predecessor and sends to its successor; participant 0 finally receives
// from participant n-1. One round, repeated forever.
//
// It returns the projected locals and the AMR-optimised locals (everyone
// sends before receiving).
func RingN(n int) (plain, optimised map[types.Role]types.Local) {
	if n < 2 {
		panic("protocols: ring needs at least 2 participants")
	}
	plain = map[types.Role]types.Local{}
	optimised = map[types.Role]types.Local{}
	for i := 0; i < n; i++ {
		succ := RingRole((i + 1) % n)
		pred := RingRole((i + n - 1) % n)
		send := func(cont types.Local) types.Local { return types.LSend(succ, "v", types.Unit, cont) }
		recv := func(cont types.Local) types.Local { return types.LRecv(pred, "v", types.Unit, cont) }
		if i == 0 {
			plain[RingRole(i)] = types.Rec{Name: "t", Body: send(recv(types.Var{Name: "t"}))}
		} else {
			plain[RingRole(i)] = types.Rec{Name: "t", Body: recv(send(types.Var{Name: "t"}))}
		}
		optimised[RingRole(i)] = types.Rec{Name: "t", Body: send(recv(types.Var{Name: "t"}))}
	}
	return plain, optimised
}

// RingNSystem returns the optimised ring machines for the k-MC side of the
// benchmark.
func RingNSystem(n int) []*fsm.FSM {
	_, opt := RingN(n)
	out := make([]*fsm.FSM, n)
	for i := 0; i < n; i++ {
		out[i] = fsm.MustFromLocal(RingRole(i), opt[RingRole(i)])
	}
	return out
}

// dualOf returns the syntactic dual of a local type: sends become receives
// and vice versa, labels and structure unchanged.
func dualOf(t types.Local) types.Local {
	switch t := t.(type) {
	case types.End, types.Var:
		return t
	case types.Rec:
		return types.Rec{Name: t.Name, Body: dualOf(t.Body)}
	case types.Send:
		return types.Recv{Peer: t.Peer, Branches: dualBranches(t.Branches)}
	case types.Recv:
		return types.Send{Peer: t.Peer, Branches: dualBranches(t.Branches)}
	default:
		panic(fmt.Sprintf("protocols: unknown local type %T", t))
	}
}

func dualBranches(bs []types.Branch) []types.Branch {
	out := make([]types.Branch, len(bs))
	for i, b := range bs {
		out[i] = types.Branch{Label: b.Label, Sort: b.Sort, Cont: dualOf(b.Cont)}
	}
	return out
}

// renamePeer rewrites every occurrence of peer from to to in t.
func renamePeer(t types.Local, from, to types.Role) types.Local {
	switch t := t.(type) {
	case types.End, types.Var:
		return t
	case types.Rec:
		return types.Rec{Name: t.Name, Body: renamePeer(t.Body, from, to)}
	case types.Send:
		return types.Send{Peer: renameRole(t.Peer, from, to), Branches: renameBranches(t.Branches, from, to)}
	case types.Recv:
		return types.Recv{Peer: renameRole(t.Peer, from, to), Branches: renameBranches(t.Branches, from, to)}
	default:
		panic(fmt.Sprintf("protocols: unknown local type %T", t))
	}
}

func renameRole(r, from, to types.Role) types.Role {
	if r == from {
		return to
	}
	return r
}

func renameBranches(bs []types.Branch, from, to types.Role) []types.Branch {
	out := make([]types.Branch, len(bs))
	for i, b := range bs {
		out[i] = types.Branch{Label: b.Label, Sort: b.Sort, Cont: renamePeer(b.Cont, from, to)}
	}
	return out
}
