// Package subsync implements synchronous multiparty session subtyping
// (Fig. A.10 of the paper, after Chen et al.): the reference relation without
// asynchronous message reordering. It is a test oracle that no non-test code
// imports: its tests use it to confirm that the asynchronous relation of
// internal/core strictly extends the synchronous one (every synchronously
// related pair is related asynchronously, and a reordering only
// asynchronously).
package subsync

import (
	"fmt"

	"repro/internal/types"
)

// Check reports whether sub ≤ sup under synchronous subtyping: width
// subtyping on choices (fewer outputs, more inputs), sort subtyping on
// payloads, and no reordering.
//
//repro:keep the synchronous-subtyping oracle its tests hold internal/core's asynchronous relation against
func Check(sub, sup types.Local) (bool, error) {
	if err := types.ValidateLocal(sub); err != nil {
		return false, fmt.Errorf("subsync: subtype: %w", err)
	}
	if err := types.ValidateLocal(sup); err != nil {
		return false, fmt.Errorf("subsync: supertype: %w", err)
	}
	c := &checker{seen: map[[2]string]bool{}}
	return c.visit(sub, sup), nil
}

type checker struct {
	// seen holds pairs assumed related, keyed by the printed forms of their
	// α-canonical representatives; the relation is coinductive so assuming a
	// revisited pair is sound. Canonical keys make α-variant recursions
	// (μx.….x versus μy.….y) hit the same hypothesis: keyed on the raw
	// String() they would never match, re-exploring every α-renamed revisit
	// (worst case exponentially) and diverging from the α-blind core
	// algorithm on renamed inputs.
	seen map[[2]string]bool
	// visits counts hypothesis-table probes, for the α-invariance
	// regression test.
	visits int
}

func (c *checker) visit(sub, sup types.Local) bool {
	c.visits++
	key := [2]string{
		types.AlphaCanonicalLocal(sub).String(),
		types.AlphaCanonicalLocal(sup).String(),
	}
	if c.seen[key] {
		return true
	}
	c.seen[key] = true
	a := types.Unfold(sub)
	b := types.Unfold(sup)
	switch a := a.(type) {
	case types.End:
		_, ok := b.(types.End)
		return ok
	case types.Send:
		bs, ok := b.(types.Send)
		if !ok || bs.Peer != a.Peer {
			return false
		}
		// [sub-sel]: every selected label must be offered, covariantly.
		for _, br := range a.Branches {
			sb, ok := findBranch(bs.Branches, br.Label)
			if !ok || !types.SubSort(br.Sort, sb.Sort) || !c.visit(br.Cont, sb.Cont) {
				return false
			}
		}
		return true
	case types.Recv:
		bs, ok := b.(types.Recv)
		if !ok || bs.Peer != a.Peer {
			return false
		}
		// [sub-bra]: every label the supertype may deliver must be handled,
		// contravariantly.
		for _, br := range bs.Branches {
			sb, ok := findBranch(a.Branches, br.Label)
			if !ok || !types.SubSort(br.Sort, sb.Sort) || !c.visit(sb.Cont, br.Cont) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func findBranch(bs []types.Branch, l types.Label) (types.Branch, bool) {
	for _, b := range bs {
		if b.Label == l {
			return b, true
		}
	}
	return types.Branch{}, false
}
