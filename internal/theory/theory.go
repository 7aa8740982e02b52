// Package theory implements the tree refinement relation ≲ of Ghilezan et
// al. as presented in Appendix B.1–B.2 of the paper, for SISO session types
// (single-input single-output: no branching). It is a direct, executable
// transcription of the rules [ref-end], [ref-in], [ref-out], [ref-A] and
// [ref-B] over finitely-represented (μ-recursive) type trees, with
// coinduction realised as assume-on-revisit and a depth bound standing in
// for the infinite unfolding.
//
// The package exists as a *reference semantics*: tests use it as a
// differential oracle for the production algorithm in internal/core on the
// SISO fragment (where the full subtyping relation ≤ coincides with ≲).
package theory

import (
	"fmt"

	"repro/internal/fsm"
	"repro/internal/types"
)

// DefaultDepth bounds the number of unfoldings explored.
const DefaultDepth = 64

// IsSISO reports whether every choice in t has exactly one branch.
func IsSISO(t types.Local) bool {
	switch t := t.(type) {
	case types.End, types.Var:
		return true
	case types.Rec:
		return IsSISO(t.Body)
	case types.Send:
		return len(t.Branches) == 1 && IsSISO(t.Branches[0].Cont)
	case types.Recv:
		return len(t.Branches) == 1 && IsSISO(t.Branches[0].Cont)
	default:
		return false
	}
}

// Refines reports whether w ≲ w′ can be derived within the given unfolding
// depth (0 means DefaultDepth). Both types must be closed, well-formed and
// SISO. A false answer means "not derivable at this depth".
//
//repro:keep the reference semantics its tests hold internal/core against on the SISO fragment
func Refines(w, wp types.Local, depth int) (bool, error) {
	if err := types.ValidateLocal(w); err != nil {
		return false, fmt.Errorf("theory: left: %w", err)
	}
	if err := types.ValidateLocal(wp); err != nil {
		return false, fmt.Errorf("theory: right: %w", err)
	}
	if !IsSISO(w) || !IsSISO(wp) {
		return false, fmt.Errorf("theory: refinement is defined on SISO types only")
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	c := &checker{assumed: map[[2]string]bool{}}
	return c.refines(w, wp, depth), nil
}

type checker struct {
	assumed map[[2]string]bool
}

// head deconstructs an unfolded SISO type into its first action and
// continuation; ok is false for end.
func head(t types.Local) (act fsm.Action, cont types.Local, ok bool) {
	switch t := t.(type) {
	case types.Send:
		b := t.Branches[0]
		return fsm.Action{Dir: fsm.Send, Peer: t.Peer, Label: b.Label, Sort: b.Sort}, b.Cont, true
	case types.Recv:
		b := t.Branches[0]
		return fsm.Action{Dir: fsm.Recv, Peer: t.Peer, Label: b.Label, Sort: b.Sort}, b.Cont, true
	default:
		return fsm.Action{}, nil, false
	}
}

// rebuild prepends action act to continuation cont.
func rebuild(act fsm.Action, cont types.Local) types.Local {
	b := []types.Branch{{Label: act.Label, Sort: act.Sort, Cont: cont}}
	if act.Dir == fsm.Send {
		return types.Send{Peer: act.Peer, Branches: b}
	}
	return types.Recv{Peer: act.Peer, Branches: b}
}

func (c *checker) refines(w, wp types.Local, depth int) bool {
	if depth <= 0 {
		return false
	}
	w = types.Unfold(w)
	wp = types.Unfold(wp)
	key := [2]string{w.String(), wp.String()}
	if c.assumed[key] {
		return true // coinductive hypothesis
	}
	c.assumed[key] = true
	defer delete(c.assumed, key)

	ha, wCont, wOK := head(w)
	if !wOK {
		_, _, wpOK := head(wp)
		return !wpOK // [ref-end]
	}
	hb, wpCont, wpOK := head(wp)
	if !wpOK {
		return false
	}

	// Direct rules [ref-in] / [ref-out].
	if ha.Dir == hb.Dir && ha.Peer == hb.Peer && ha.Label == hb.Label {
		if sortCompatible(ha, hb) && c.refines(wCont, wpCont, depth-1) {
			return true
		}
	}

	// Reordering rules [ref-A] / [ref-B]: find the matching action later in
	// the supertype behind a permitted sequence A(p)/B(p); extract returns
	// the remainder A(p).W′ with the matched action removed. The side
	// condition act(W) = act(A(p).W′) prevents forgotten interactions
	// (Fig. A.14).
	if rest, found := c.extract(ha, wp, depth); found {
		if actSet(wCont) == actSet(rest) {
			return c.refines(wCont, rest, depth-1)
		}
	}
	return false
}

// extract removes the first occurrence of an action matching h from the
// supertype tree wp, provided every action before it is permitted by A(p)
// (for inputs: receives not from p) or B(p) (for outputs: any receives and
// sends not to p). It returns the supertype with that occurrence removed.
func (c *checker) extract(h fsm.Action, wp types.Local, depth int) (types.Local, bool) {
	if depth <= 0 {
		return nil, false
	}
	wp = types.Unfold(wp)
	hb, cont, ok := head(wp)
	if !ok {
		return nil, false
	}
	if hb.Dir == h.Dir && hb.Peer == h.Peer {
		if hb.Label == h.Label && sortCompatible(h, hb) {
			return cont, true // found the anticipated action
		}
		return nil, false // same peer+direction, different label: blocked
	}
	// Is hb skippable before h?
	if h.Dir == fsm.Recv {
		// A(p): only receives from other participants.
		if hb.Dir != fsm.Recv {
			return nil, false
		}
	} else {
		// B(p): receives from anyone, sends to other participants. A send to
		// p with a different label was rejected above; a send to p never
		// reaches here unless peers differ, so only check the direction mix:
		if hb.Dir == fsm.Send && hb.Peer == h.Peer {
			return nil, false
		}
	}
	rest, found := c.extract(h, cont, depth-1)
	if !found {
		return nil, false
	}
	return rebuild(hb, rest), true
}

func sortCompatible(sub, sup fsm.Action) bool {
	if sub.Dir == fsm.Send {
		return types.SubSort(sub.Sort, sup.Sort)
	}
	return types.SubSort(sup.Sort, sub.Sort)
}

// actSet renders the set of (direction, participant) pairs occurring in the
// (possibly infinite) tree of t, computed over its finite representation —
// the function act(W) of Fig. A.12.
func actSet(t types.Local) string {
	set := map[string]bool{}
	var walk func(types.Local)
	walk = func(t types.Local) {
		switch t := t.(type) {
		case types.Send:
			set["!"+string(t.Peer)] = true
			for _, b := range t.Branches {
				walk(b.Cont)
			}
		case types.Recv:
			set["?"+string(t.Peer)] = true
			for _, b := range t.Branches {
				walk(b.Cont)
			}
		case types.Rec:
			walk(t.Body)
		}
	}
	walk(t)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := ""
	for _, k := range keys {
		out += k + ";"
	}
	return out
}
