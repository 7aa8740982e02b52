package lint

import (
	"go/types"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file identifies the generated session API structurally, so the
// analyzers work on any sessgen output — checked-in examples/gen packages
// or user-generated ones — without hardcoding package import paths. The
// marker contract (documented in cmd/sessgen and DESIGN.md) is:
//
//   - a session *state* is a struct type carrying a genrt.St one-shot stamp
//     field (sessgen also writes a //sessgen:state directive comment on it);
//   - a *branch sum* is a struct type with a types.Label discriminator
//     field named Label and one <Arm>Next state field per arm (directive
//     //sessgen:branch);
//   - a role is *terminating* iff its package declares an End state (a
//     state type named *End sharing the role's endpoint core type).
//
// Detection is by type structure, which survives export data, so the
// analyzers see states and sums in imported packages exactly as in the
// package under analysis.

// sess is the per-package detection cache one Pass shares across the
// analyzers' flow runs.
type sess struct {
	info    *types.Info
	states  map[*types.Named]*stateInfo
	sums    map[*types.Named]*sumInfo
	termini map[*types.Named]bool
}

func newSess(info *types.Info) *sess {
	return &sess{
		info:    info,
		states:  map[*types.Named]*stateInfo{},
		sums:    map[*types.Named]*sumInfo{},
		termini: map[*types.Named]bool{},
	}
}

// stateInfo describes one generated state type.
type stateInfo struct {
	named *types.Named
	// ep is the endpoint-core field type (*pkg.xEp), linking states of one
	// role; nil if the state has no ep field (degenerate machines).
	ep types.Type
	// end reports whether this is the End terminal state itself.
	end bool
}

// sumInfo describes one generated branch sum type.
type sumInfo struct {
	named *types.Named
	// arms maps arm base name ("Value") to the arm's continuation state.
	arms map[string]*stateInfo
}

// isGenrtSt reports whether t is the genrt.St stamp type: a named type St
// whose package is called genrt (matched by name, not import path, so
// forked or vendored module paths keep working).
func isGenrtSt(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "St" && obj.Pkg() != nil && obj.Pkg().Name() == "genrt"
}

// isTypesLabel reports whether t is the types.Label discriminator type.
func isTypesLabel(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Label" && obj.Pkg() != nil && obj.Pkg().Name() == "types"
}

// state returns the stateInfo of t if t is a generated session state.
func (s *sess) state(t types.Type) *stateInfo {
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if si, ok := s.states[n]; ok {
		return si
	}
	s.states[n] = nil // cut recursion
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	si := &stateInfo{named: n}
	hasStamp := false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isGenrtSt(f.Type()) {
			hasStamp = true
		}
		if _, isPtr := f.Type().(*types.Pointer); isPtr && f.Name() == "ep" {
			si.ep = f.Type()
		}
	}
	if !hasStamp {
		return nil
	}
	si.end = strings.HasSuffix(n.Obj().Name(), "End")
	s.states[n] = si
	return si
}

// sum returns the sumInfo of t if t is a generated branch sum.
func (s *sess) sum(t types.Type) *sumInfo {
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if su, ok := s.sums[n]; ok {
		return su
	}
	s.sums[n] = nil
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	hasLabel := false
	arms := map[string]*stateInfo{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "Label" && isTypesLabel(f.Type()) {
			hasLabel = true
			continue
		}
		if arm, ok := strings.CutSuffix(f.Name(), "Next"); ok && arm != "" {
			if si := s.state(f.Type()); si != nil {
				arms[arm] = si
			}
		}
	}
	if !hasLabel || len(arms) == 0 {
		return nil
	}
	su := &sumInfo{named: n, arms: arms}
	s.sums[n] = su
	return su
}

// terminating reports whether si belongs to a terminating role: its package
// declares an End state sharing si's endpoint core type. States of
// non-terminating (infinite) roles may be abandoned by returning — that is
// the documented way such a process stops — so statedropped exempts them.
func (s *sess) terminating(si *stateInfo) bool {
	if si.end {
		return true
	}
	if v, ok := s.termini[si.named]; ok {
		return v
	}
	pkg := si.named.Obj().Pkg()
	term := false
	if pkg != nil && si.ep != nil {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if !strings.HasSuffix(name, "End") {
				continue
			}
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if end := s.state(tn.Type()); end != nil && end.end && end.ep != nil && types.Identical(end.ep, si.ep) {
				term = true
				break
			}
		}
	}
	s.termini[si.named] = term
	return term
}

// stateName renders a state type for diagnostics as pkgname.Type
// (e.g. "streaming.S0").
func stateName(n *types.Named) string {
	obj := n.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// isTryName reports whether a generated method name belongs to the
// non-blocking stepping face (TrySendX / TryRecvX / TryBranch).
func isTryName(name string) bool {
	return strings.HasPrefix(name, "Try")
}

// armForLabel resolves a case/comparison label expression to an arm name of
// the sum: by constant object name (LabelValue -> Value) when the name
// matches an arm, else by mangling the constant's string value exactly as
// the generator does.
func (su *sumInfo) armForLabel(constName, constValue string, haveValue bool) (string, bool) {
	if arm, ok := strings.CutPrefix(constName, "Label"); ok {
		if _, exists := su.arms[arm]; exists {
			return arm, true
		}
	}
	if haveValue {
		arm := exportIdent(constValue)
		if _, exists := su.arms[arm]; exists {
			return arm, true
		}
	}
	return "", false
}

// armSetString renders a set of arm names deterministically for messages.
func armSetString(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for a := range set {
		names = append(names, a)
	}
	// insertion-order independence
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ", ")
}

// exportIdent mirrors internal/codegen's identifier mangling (kept in sync
// by TestExportIdentMatchesCodegen) so label constants can be matched to
// the arm fields the generator derived from them.
func exportIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			b.WriteRune(r)
		} else {
			b.WriteRune('_')
		}
	}
	out := b.String()
	if out == "" {
		out = "X"
	}
	first, _ := utf8.DecodeRuneInString(out)
	if !unicode.IsUpper(unicode.ToUpper(first)) {
		out = "X" + out
	}
	r, size := utf8.DecodeRuneInString(out)
	return string(unicode.ToUpper(r)) + out[size:]
}
