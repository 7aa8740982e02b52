package wire

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// codecEntry binds one label to its sort and the sort's codec. It keeps the
// label itself so the parser can hand out the table's copy of the string
// instead of allocating one per frame.
type codecEntry struct {
	label types.Label
	sort  types.Sort
	info  types.SortInfo // zero (no codec) for signal labels
}

// Table maps every message label of one protocol to its sort codec. It is
// built at dial time from the protocol's local types, which is where
// unregistered-codec sorts are rejected — before any socket traffic, with a
// hint naming the registration call, mirroring how codegen rejects unknown
// sorts at generation time.
type Table struct {
	protocol string
	codecs   map[types.Label]codecEntry
}

// Protocol returns the protocol name the table was built for.
func (t *Table) Protocol() string { return t.protocol }

// Labels returns the table's labels sorted by name — the seed set for the
// wire round-trip fuzzer.
func (t *Table) Labels() []types.Label {
	out := make([]types.Label, 0, len(t.codecs))
	for l := range t.codecs {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sort returns the sort bound to label, and whether the label is known.
func (t *Table) Sort(label types.Label) (types.Sort, bool) {
	c, ok := t.codecs[label]
	return c.sort, ok
}

// TableFromLocals builds the wire table for a protocol from its projected
// local types, one per role. Every label's sort must be known and must
// carry a codec; a label used at two different sorts is rejected (the wire
// format identifies the codec by label alone).
func TableFromLocals(protocol string, locals map[types.Role]types.Local) (*Table, error) {
	t := &Table{protocol: protocol, codecs: map[types.Label]codecEntry{}}
	for _, role := range sortedRoles(locals) {
		var err error
		walkLocal(locals[role], func(label types.Label, s types.Sort) {
			if err == nil {
				err = t.add(label, s)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("wire: protocol %s, role %s: %w", protocol, role, err)
		}
	}
	return t, nil
}

// TableFromGlobal builds the wire table from a global type directly.
func TableFromGlobal(protocol string, g types.Global) (*Table, error) {
	t := &Table{protocol: protocol, codecs: map[types.Label]codecEntry{}}
	var err error
	walkGlobal(g, func(label types.Label, s types.Sort) {
		if err == nil {
			err = t.add(label, s)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("wire: protocol %s: %w", protocol, err)
	}
	return t, nil
}

// add registers one (label, sort) use in the table, enforcing codec
// availability and label-sort consistency.
func (t *Table) add(label types.Label, s types.Sort) error {
	if prev, ok := t.codecs[label]; ok {
		if prev.sort != s {
			return fmt.Errorf("label %q used at sorts %s and %s; the wire format needs one sort per label", label, prev.sort, s)
		}
		return nil
	}
	entry := codecEntry{label: label, sort: s}
	if s != "" && s != types.Unit {
		info, ok := types.LookupSort(s)
		if !ok {
			return fmt.Errorf("label %q carries unknown sort %s; register it with types.RegisterSort", label, s)
		}
		if info.Encode == nil || info.Decode == nil {
			return fmt.Errorf("label %q carries sort %s, which has no wire codec; re-register it with types.RegisterSort setting Encode, Decode and Zero", label, s)
		}
		entry.info = info
	}
	t.codecs[label] = entry
	return nil
}

// walkLocal visits every (label, sort) pair in t.
func walkLocal(t types.Local, visit func(types.Label, types.Sort)) {
	switch t := t.(type) {
	case types.Rec:
		walkLocal(t.Body, visit)
	case types.Send:
		for _, b := range t.Branches {
			visit(b.Label, b.Sort)
			walkLocal(b.Cont, visit)
		}
	case types.Recv:
		for _, b := range t.Branches {
			visit(b.Label, b.Sort)
			walkLocal(b.Cont, visit)
		}
	}
}

// walkGlobal visits every (label, sort) pair in g.
func walkGlobal(g types.Global, visit func(types.Label, types.Sort)) {
	switch g := g.(type) {
	case types.GRec:
		walkGlobal(g.Body, visit)
	case types.Comm:
		for _, b := range g.Branches {
			visit(b.Label, b.Sort)
			walkGlobal(b.Cont, visit)
		}
	}
}

func sortedRoles(locals map[types.Role]types.Local) []types.Role {
	out := make([]types.Role, 0, len(locals))
	for r := range locals {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
