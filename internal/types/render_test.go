package types_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/protofuzz"
	"repro/internal/types"
)

// fmtLocal is the fmt-based rendering that Local.String replaced, kept as
// the reference: the optimiser's and subsync's memo keys and the codegen
// goldens depend on the exact text.
type fmtLocal struct{ t types.Local }

// wrap hands fmt a nil interface for a nil type, as the old nested %s did.
func wrap(t types.Local) any {
	if t == nil {
		return nil
	}
	return fmtLocal{t}
}

func (f fmtLocal) String() string {
	switch t := f.t.(type) {
	case types.End:
		return "end"
	case types.Var:
		return t.Name
	case types.Rec:
		return fmt.Sprintf("mu %s.%s", t.Name, wrap(t.Body))
	case types.Send:
		return fmtChoice(t.Peer, "!", t.Branches)
	case types.Recv:
		return fmtChoice(t.Peer, "?", t.Branches)
	default:
		return fmt.Sprintf("%s", t)
	}
}

func fmtChoice(peer types.Role, op string, branches []types.Branch) string {
	parts := make([]string, len(branches))
	for i, b := range branches {
		if b.Sort == types.Unit || b.Sort == "" {
			parts[i] = fmt.Sprintf("%s.%s", b.Label, wrap(b.Cont))
		} else {
			parts[i] = fmt.Sprintf("%s(%s).%s", b.Label, b.Sort, wrap(b.Cont))
		}
	}
	return fmt.Sprintf("%s%s{%s}", peer, op, strings.Join(parts, ", "))
}

// TestStringMatchesFmtRendering pins Local.String byte for byte to the
// fmt-based rendering over every registry local, the Fig. 7 family
// endpoints, the projections of 300 generated protocols, and the
// α-canonical form of each.
func TestStringMatchesFmtRendering(t *testing.T) {
	var all []types.Local
	addAll := func(m map[types.Role]types.Local) {
		for _, l := range m {
			all = append(all, l)
		}
	}
	for _, e := range append(protocols.Registry(), protocols.ExtraRegistry()...) {
		addAll(e.Locals)
		addAll(e.Optimised)
		addAll(e.AutoOptimised())
	}
	for n := 1; n <= 4; n++ {
		for _, family := range []func(int) (types.Local, types.Local){protocols.StreamingUnrolled, protocols.KBuffering, protocols.NestedChoice} {
			sub, sup := family(n)
			all = append(all, sub, sup)
		}
	}
	for seed := uint64(0); seed < 300; seed++ {
		if locals, err := project.ProjectAll(protofuzz.Generate(protofuzz.Config{Seed: seed})); err == nil {
			addAll(locals)
		}
	}
	// Shapes the corpus does not reach: payload sorts on every branch kind,
	// a nested vector sort, and nil continuations.
	all = append(all,
		types.MustParse("mu x.p!{a(i32).x, b(vec<vec<f64>>).q?{c(nat).end, d.x}}"),
		types.Rec{Name: "x"},
		types.Send{Peer: "p", Branches: []types.Branch{{Label: "a", Sort: types.Int}, {Label: "b"}}},
	)
	for _, l := range all {
		for _, v := range []types.Local{l, types.AlphaCanonicalLocal(l)} {
			if got, want := v.String(), fmt.Sprint(fmtLocal{v}); got != want {
				t.Fatalf("String() = %q, fmt rendering = %q", got, want)
			}
		}
	}
	t.Logf("%d locals compared", len(all))
}
