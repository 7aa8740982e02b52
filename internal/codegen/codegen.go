package codegen

import (
	"bytes"
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/fsm"
	"repro/internal/optimise"
	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/scribble"
	"repro/internal/types"
)

// Mode selects which machine is generated per role.
type Mode int

const (
	// ModePlain generates from the projected (or registry Locals) endpoint
	// types as written.
	ModePlain Mode = iota
	// ModeAuto generates from the automatically derived and certified
	// AMR-optimised endpoints (internal/optimise); roles the optimiser does
	// not improve keep their plain machine.
	ModeAuto
	// ModeHand generates from the hand-written Optimised tables of the
	// registry entry (registry protocols only).
	ModeHand
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeHand:
		return "hand"
	default:
		return "none"
	}
}

// ParseMode parses the sessgen -optimised flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "none", "plain", "":
		return ModePlain, nil
	case "auto":
		return ModeAuto, nil
	case "hand":
		return ModeHand, nil
	}
	return ModePlain, fmt.Errorf("codegen: unknown optimisation mode %q (want none, auto or hand)", s)
}

// Options configures generation.
type Options struct {
	// Package is the emitted package name; required.
	Package string
	// Mode is recorded in the generated header (the machine selection itself
	// happens in FromEntry/FromScribble; Generate takes machines as given).
	Mode Mode
}

// FromEntry generates the package for a registry protocol, selecting
// machines per opts.Mode.
func FromEntry(e protocols.Entry, opts Options) ([]byte, error) {
	for r, l := range e.Locals {
		if bad := types.UnknownSortsLocal(l); len(bad) > 0 {
			return nil, unknownSortsErr(fmt.Sprintf("%s/%s", e.Name, r), bad)
		}
	}
	var locals map[types.Role]types.Local
	switch opts.Mode {
	case ModeAuto:
		locals = e.AutoSystem()
	case ModeHand:
		// Generating "hand-optimised" machines from an entry that has none
		// would silently emit the plain projections under an optimised=hand
		// header; fail loudly instead.
		if len(e.Optimised) == 0 {
			return nil, fmt.Errorf("codegen: %s has no hand-written optimised endpoints; use mode none or auto", e.Name)
		}
		locals = e.System()
	default:
		locals = e.Locals
	}
	fsms := map[types.Role]*fsm.FSM{}
	for r, l := range locals {
		m, err := fsm.FromLocal(r, l)
		if err != nil {
			return nil, fmt.Errorf("codegen: machine for %s/%s: %w", e.Name, r, err)
		}
		fsms[r] = m
	}
	return Generate(e.Name, fsms, opts)
}

// FromScribble generates the package for a parsed Scribble protocol: every
// role is projected, and with ModeAuto each projection is run through the
// optimiser (certified improvements only). ModeHand has no meaning for a
// bare protocol description.
func FromScribble(p *scribble.Protocol, opts Options) ([]byte, error) {
	if opts.Mode == ModeHand {
		return nil, fmt.Errorf("codegen: mode hand needs a registry entry with hand-written optimised endpoints")
	}
	// Reject unknown sorts up front at the protocol level, naming all of
	// them at once (the per-transition check in prepare remains the
	// backstop for machines handed straight to Generate).
	if bad := types.UnknownSortsGlobal(p.Global); len(bad) > 0 {
		return nil, unknownSortsErr(p.Name, bad)
	}
	fsms := map[types.Role]*fsm.FSM{}
	for _, r := range p.Roles {
		l, err := project.Project(p.Global, r)
		if err != nil {
			return nil, fmt.Errorf("codegen: projecting %s onto %s: %w", p.Name, r, err)
		}
		if opts.Mode == ModeAuto {
			res, err := optimise.Optimise(r, l, optimise.Options{})
			if err != nil {
				return nil, fmt.Errorf("codegen: optimising %s/%s: %w", p.Name, r, err)
			}
			if res.Improved {
				l = res.Best.Type
			}
		}
		m, err := fsm.FromLocal(r, l)
		if err != nil {
			return nil, fmt.Errorf("codegen: machine for %s/%s: %w", p.Name, r, err)
		}
		fsms[r] = m
	}
	return Generate(p.Name, fsms, opts)
}

// unknownSortsErr reports every unregistered payload sort of a protocol in
// one error, with the registration escape hatches.
func unknownSortsErr(proto string, bad []types.Sort) error {
	parts := make([]string, len(bad))
	for i, s := range bad {
		parts[i] = string(s)
	}
	return fmt.Errorf("codegen: %s: payload sorts not registered: %s; bind them to Go types first (types.RegisterSort, or sessgen -sortmap name=GoType)", proto, strings.Join(parts, ", "))
}

// Generate emits the typed state-pattern package for the given verified
// machines. Machines must be directed (the shape of machines derived from
// local session types). Output is deterministic and gofmt-canonical by
// construction: the emitter writes gofmt's layout itself (see aligned), so
// no re-print pass runs. The emitted source is still parsed before it is
// returned, and a parse failure is reported with the raw source attached.
func Generate(proto string, fsms map[types.Role]*fsm.FSM, opts Options) ([]byte, error) {
	if opts.Package == "" {
		return nil, fmt.Errorf("codegen: Options.Package is required")
	}
	if !token.IsIdentifier(opts.Package) {
		return nil, fmt.Errorf("codegen: package name %q is not a valid Go identifier", opts.Package)
	}
	if len(fsms) == 0 {
		return nil, fmt.Errorf("codegen: no machines to generate from")
	}
	g := &generator{proto: proto, opts: opts, fsms: fsms}
	if err := g.prepare(); err != nil {
		return nil, err
	}
	g.emit()
	src := g.b.Bytes()
	if _, err := parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution); err != nil {
		// A parse failure is a generator bug; surface the raw source to make
		// it debuggable.
		return nil, fmt.Errorf("codegen: generated source does not parse: %w\n%s", err, src)
	}
	return src, nil
}

// generator holds the prepared, deterministic model of the emitted package.
type generator struct {
	b     bytes.Buffer
	proto string
	opts  Options
	fsms  map[types.Role]*fsm.FSM

	roles  []types.Role
	labels []types.Label
	rgs    []*roleGen
	names  map[string]string // emitted top-level identifier -> what owns it
	// extraImports are the packages referenced by registry sort bindings
	// (types.SortInfo.Import) used in this protocol's payloads.
	extraImports map[string]bool
}

type roleGen struct {
	role  types.Role
	ident string // exported role identifier, e.g. "S"
	ep    string // endpoint core type, e.g. "sEp"
	m     *fsm.FSM

	states []fsm.State // reachable non-final states, ascending
	finals []fsm.State // reachable final states, ascending
	local  string      // pretty local type, for comments ("" if not directed-printable)

	sendPeers []types.Role
	recvPeers []types.Role
}

func (r *roleGen) terminating() bool { return len(r.finals) > 0 }

// stateName maps a state to its emitted type name; all final states share
// the single End type (final states are behaviourally identical).
func (r *roleGen) stateName(s fsm.State) string {
	if r.m.IsFinal(s) {
		return r.ident + "End"
	}
	return fmt.Sprintf("%s%d", r.ident, s)
}

func (g *generator) prepare() error {
	for r := range g.fsms {
		g.roles = append(g.roles, r)
	}
	sort.Slice(g.roles, func(i, j int) bool { return g.roles[i] < g.roles[j] })

	g.names = map[string]string{}
	g.extraImports = map[string]bool{}
	labelSet := map[types.Label]bool{}
	labelIdents := map[string]types.Label{}

	for _, role := range g.roles {
		m := g.fsms[role]
		if err := m.Validate(); err != nil {
			return fmt.Errorf("codegen: role %s: %w", role, err)
		}
		if !m.Directed() {
			return fmt.Errorf("codegen: machine for %s is not directed; state-pattern APIs need local-type-shaped machines", role)
		}
		rg := &roleGen{role: role, ident: exportIdent(string(role)), m: m}
		rg.ep = unexportIdent(rg.ident) + "Ep"
		if lt, err := fsm.ToLocal(m); err == nil {
			rg.local = lt.String()
		}

		reach := m.Reachable()
		var all []fsm.State
		for s := range reach {
			all = append(all, s)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		sends, recvs := map[types.Role]bool{}, map[types.Role]bool{}
		for _, s := range all {
			if m.IsFinal(s) {
				rg.finals = append(rg.finals, s)
				continue
			}
			rg.states = append(rg.states, s)
			for _, t := range m.Transitions(s) {
				if !types.KnownSort(t.Act.Sort) {
					return fmt.Errorf("codegen: role %s: payload sort %q is not registered; bind it to a Go type first (types.RegisterSort, or sessgen -sortmap %s=GoType)", role, t.Act.Sort, t.Act.Sort)
				}
				if info, ok := types.LookupSort(t.Act.Sort); ok && info.Import != "" {
					g.extraImports[info.Import] = true
				}
				labelSet[t.Act.Label] = true
				if t.Act.Dir == fsm.Send {
					sends[t.Act.Peer] = true
				} else {
					recvs[t.Act.Peer] = true
				}
			}
		}
		rg.sendPeers = sortedRoles(sends)
		rg.recvPeers = sortedRoles(recvs)

		// Reserve the role's top-level identifiers, catching collisions
		// between roles whose mangled names overlap (e.g. "s" state 10 vs a
		// role literally named "s1").
		if err := g.reserve("Role"+rg.ident, "role "+string(role)); err != nil {
			return err
		}
		if err := g.reserve(rg.ep, "endpoint core of "+string(role)); err != nil {
			return err
		}
		for _, s := range rg.states {
			if err := g.reserve(rg.stateName(s), fmt.Sprintf("state %d of role %s", s, role)); err != nil {
				return err
			}
			if len(m.Transitions(s)) > 1 && m.Transitions(s)[0].Act.Dir == fsm.Recv {
				if err := g.reserve(rg.stateName(s)+"Branch", fmt.Sprintf("branch sum of state %d of role %s", s, role)); err != nil {
					return err
				}
			}
		}
		if rg.terminating() {
			if err := g.reserve(rg.ident+"End", "terminal state of role "+string(role)); err != nil {
				return err
			}
		}
		if err := g.reserve("Run"+rg.ident, "runner of role "+string(role)); err != nil {
			return err
		}
		g.rgs = append(g.rgs, rg)
	}

	for l := range labelSet {
		g.labels = append(g.labels, l)
	}
	sort.Slice(g.labels, func(i, j int) bool { return g.labels[i] < g.labels[j] })
	for _, l := range g.labels {
		id := "Label" + exportIdent(string(l))
		if prev, ok := labelIdents[id]; ok && prev != l {
			return fmt.Errorf("%w: labels %q and %q both mangle to %s", ErrIdentCollision, prev, l, id)
		}
		labelIdents[id] = l
		if err := g.reserve(id, "label "+string(l)); err != nil {
			return err
		}
	}
	return nil
}

// ErrIdentCollision reports that two protocol names (roles, labels, or the
// identifiers derived from them) mangle to the same exported Go identifier.
// The protocol itself is fine — it projects and verifies — but the
// generated API cannot render both names; callers that feed arbitrary
// protocols through codegen (internal/protofuzz) classify this rejection
// as by-design rather than a generator bug.
var ErrIdentCollision = errors.New("codegen: identifier collision")

func (g *generator) reserve(name, owner string) error {
	if prev, ok := g.names[name]; ok {
		return fmt.Errorf("%w: identifier %s needed by %s collides with %s; rename a role or label", ErrIdentCollision, name, owner, prev)
	}
	g.names[name] = owner
	return nil
}

func sortedRoles(set map[types.Role]bool) []types.Role {
	out := make([]types.Role, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *generator) pf(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
}

// aligned writes a run of tab-indented "name rest" rows the way gofmt lays
// out consecutive struct fields or const specs: every name is padded with
// spaces to the widest name in the run plus one. Width counts runes, as
// gofmt's tabwriter does, because Scribble identifiers may be any Unicode
// letter. A run ends wherever gofmt ends one, e.g. at a comment line, so
// callers pass only the rows between such breaks.
func (g *generator) aligned(rows [][2]string) {
	w := 0
	for _, r := range rows {
		w = max(w, utf8.RuneCountInString(r[0]))
	}
	for _, r := range rows {
		g.b.WriteByte('\t')
		g.b.WriteString(r[0])
		for n := utf8.RuneCountInString(r[0]); n <= w; n++ {
			g.b.WriteByte(' ')
		}
		g.b.WriteString(r[1])
		g.b.WriteByte('\n')
	}
}

func (g *generator) emit() {
	g.pf("// Code generated by sessgen (internal/codegen) from protocol %q, optimised=%s. DO NOT EDIT.\n\n", g.proto, g.opts.Mode)
	g.pf("package %s\n\n", g.opts.Package)
	imports := []string{"repro/internal/codegen/genrt", "repro/internal/session", "repro/internal/types"}
	// The Try* stepping face tests for session.ErrWouldBlock with errors.Is;
	// a role set with no non-final states emits no methods at all, and must
	// not import what it does not use.
	for _, rg := range g.rgs {
		if len(rg.states) > 0 {
			imports = append(imports, "errors")
			break
		}
	}
	for imp := range g.extraImports {
		imports = append(imports, imp)
	}
	sort.Strings(imports)
	// A sort binding may name a package the API imports anyway; gofmt's
	// canonical form lists each import once.
	imports = slices.Compact(imports)
	g.pf("import (\n")
	for _, imp := range imports {
		g.pf("\t%q\n", imp)
	}
	g.pf(")\n\n")

	// Labels.
	if len(g.labels) > 0 {
		g.pf("// Message labels of the protocol.\nconst (\n")
		rows := make([][2]string, len(g.labels))
		for i, l := range g.labels {
			rows[i] = [2]string{"Label" + exportIdent(string(l)), fmt.Sprintf("types.Label = %q", string(l))}
		}
		g.aligned(rows)
		g.pf(")\n\n")
	}

	// Roles.
	g.pf("// Participants of the protocol.\nconst (\n")
	rows := make([][2]string, len(g.rgs))
	for i, rg := range g.rgs {
		rows[i] = [2]string{"Role" + rg.ident, fmt.Sprintf("types.Role = %q", string(rg.role))}
	}
	g.aligned(rows)
	g.pf(")\n\n")
	g.pf("// Roles returns the participants in deterministic order.\n")
	g.pf("func Roles() []types.Role {\n\treturn []types.Role{")
	for i, rg := range g.rgs {
		if i > 0 {
			g.pf(", ")
		}
		g.pf("Role%s", rg.ident)
	}
	g.pf("}\n}\n\n")
	g.pf("// NewNetwork returns a network over the protocol's roles on the default\n// (unbounded lock-free ring) substrate.\n")
	g.pf("func NewNetwork() *session.Network {\n\treturn session.NewNetwork(Roles()...)\n}\n\n")

	g.emitProcs()

	for _, rg := range g.rgs {
		g.emitRole(rg)
	}
	// Every block above ends with a blank line; gofmt ends the file with
	// exactly one newline.
	g.b.Truncate(len(bytes.TrimRight(g.b.Bytes(), "\n")) + 1)
}

func (g *generator) emitProcs() {
	g.pf("// Procs is one process per role, for Run.\ntype Procs struct {\n")
	rows := make([][2]string, len(g.rgs))
	for i, rg := range g.rgs {
		rows[i] = [2]string{rg.ident, g.procSig(rg)}
	}
	g.aligned(rows)
	g.pf("}\n\n")
	g.pf("// Run executes one process per role concurrently over net and returns the\n")
	g.pf("// first error; on error the network is torn down so sibling processes\n")
	g.pf("// blocked on messages that will never arrive fail promptly.\n")
	g.pf("func Run(net *session.Network, p Procs) error {\n")
	for _, rg := range g.rgs {
		g.pf("\tif p.%s == nil {\n\t\treturn genrt.MissingProc(Role%s)\n\t}\n", rg.ident, rg.ident)
	}
	g.pf("\tr := genrt.NewRunner(net)\n")
	for _, rg := range g.rgs {
		g.pf("\tr.Go(Role%s, func() error { return Run%s(net, p.%s) })\n", rg.ident, rg.ident, rg.ident)
	}
	g.pf("\treturn r.Wait()\n}\n\n")
}

func (g *generator) procSig(rg *roleGen) string {
	init := rg.stateName(rg.m.Initial())
	if rg.terminating() {
		return fmt.Sprintf("func(%s) (%s, error)", init, rg.ident+"End")
	}
	return fmt.Sprintf("func(%s) error", init)
}

func (g *generator) emitRole(rg *roleGen) {
	g.pf("// ---- role %s ----\n", rg.role)
	if rg.local != "" {
		g.pf("//\n// Verified machine: %s\n", rg.local)
	}
	g.pf("\n")

	// Endpoint core: shared stamp counter plus route-bound monitor-free
	// senders and receivers, resolved once at session start.
	g.pf("// %s is role %s's session core: the shared one-shot stamp counter and the\n// pre-resolved monitor-free routes.\n", rg.ep, rg.role)
	g.pf("type %s struct {\n", rg.ep)
	rows := [][2]string{{"c", "*genrt.Core"}}
	for _, p := range rg.sendPeers {
		rows = append(rows, [2]string{"send" + exportIdent(string(p)), "session.UncheckedSend"})
	}
	for _, p := range rg.recvPeers {
		rows = append(rows, [2]string{"recv" + exportIdent(string(p)), "session.UncheckedRecv"})
	}
	g.aligned(rows)
	g.pf("}\n\n")

	g.pf("func new%s(c *genrt.Core) (*%s, error) {\n\tep := &%s{c: c}\n\tvar err error\n", exportIdent(rg.ep), rg.ep, rg.ep)
	for _, p := range rg.sendPeers {
		g.pf("\tif ep.send%s, err = c.U().To(Role%s); err != nil {\n\t\treturn nil, err\n\t}\n", exportIdent(string(p)), exportIdent(string(p)))
	}
	for _, p := range rg.recvPeers {
		g.pf("\tif ep.recv%s, err = c.U().From(Role%s); err != nil {\n\t\treturn nil, err\n\t}\n", exportIdent(string(p)), exportIdent(string(p)))
	}
	g.pf("\treturn ep, nil\n}\n\n")

	// Runner.
	init := rg.stateName(rg.m.Initial())
	if rg.terminating() {
		g.pf("// Run%s runs f as role %s on net with exclusive endpoint ownership. f is\n", rg.ident, rg.role)
		g.pf("// handed the initial state and must return the End value: completion of the\n// protocol is witnessed by the live terminal state, not assumed.\n")
		g.pf("func Run%s(net *session.Network, f %s) error {\n", rg.ident, g.procSig(rg))
		g.pf("\treturn genrt.Session(net, Role%s, func(c *genrt.Core) error {\n", rg.ident)
		g.pf("\t\tep, err := new%s(c)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n", exportIdent(rg.ep))
		g.pf("\t\tend, err := f(%s{ep: ep, st: c.Init()})\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n", init)
		g.pf("\t\treturn genrt.Finish(c, end.st)\n\t})\n}\n\n")
	} else {
		g.pf("// Run%s runs f as role %s on net with exclusive endpoint ownership. The\n", rg.ident, rg.role)
		g.pf("// protocol is infinite (no terminal state is reachable), so completion\n// cannot be witnessed: f stops deliberately by returning, and callers bound\n// iteration counts so all roles stop consistently.\n")
		g.pf("func Run%s(net *session.Network, f %s) error {\n", rg.ident, g.procSig(rg))
		g.pf("\treturn genrt.Session(net, Role%s, func(c *genrt.Core) error {\n", rg.ident)
		g.pf("\t\tep, err := new%s(c)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n", exportIdent(rg.ep))
		g.pf("\t\treturn f(%s{ep: ep, st: c.Init()})\n\t})\n}\n\n", init)
	}

	// End type.
	if rg.terminating() {
		g.pf("// %sEnd is role %s's terminal state: obtaining it is only possible by\n// driving the session to completion, and returning it from the process\n// witnesses that completion to Run%s.\n", rg.ident, rg.role, rg.ident)
		g.pf("type %sEnd struct {\n\tep *%s\n\tst genrt.St\n}\n\n", rg.ident, rg.ep)
	}

	// States.
	for _, s := range rg.states {
		g.emitState(rg, s)
	}
}

// stateRef renders a state type's name as it appears in runtime linearity
// faults (UseAs/PeekAs): qualified by the generated package name, e.g.
// "streaming.B2", so a dynamic violation points at the violating state.
func (g *generator) stateRef(state string) string {
	return g.opts.Package + "." + state
}

// transitionsComment renders a state's outgoing edges for its doc comment.
func transitionsComment(m *fsm.FSM, s fsm.State) string {
	var parts []string
	for _, t := range m.Transitions(s) {
		parts = append(parts, fmt.Sprintf("%s → state %d", t.Act, t.To))
	}
	return strings.Join(parts, ", ")
}

func (g *generator) emitState(rg *roleGen, s fsm.State) {
	name := rg.stateName(s)
	ts := rg.m.Transitions(s)
	// The //sessgen:state directive is the marker contract with sessvet
	// (internal/lint): analyzers recognise state types structurally by the
	// genrt.St stamp field, and the directive makes the contract visible to
	// humans and other tools without hardcoding package paths.
	g.pf("// %s is role %s's protocol state %d: %s.\n//\n//sessgen:state\ntype %s struct {\n\tep *%s\n\tst genrt.St\n}\n\n", name, rg.role, s, transitionsComment(rg.m, s), name, rg.ep)

	if ts[0].Act.Dir == fsm.Send {
		for _, t := range ts {
			g.emitSend(rg, name, t)
		}
		return
	}
	if len(ts) == 1 {
		g.emitRecvSingle(rg, name, ts[0])
		return
	}
	g.emitRecvBranch(rg, name, s, ts)
}

func (g *generator) emitSend(rg *roleGen, state string, t fsm.Transition) {
	peer := exportIdent(string(t.Act.Peer))
	label := exportIdent(string(t.Act.Label))
	next := rg.stateName(t.To)
	goType, _ := sortGo(t.Act.Sort)
	g.pf("// Send%s sends %s to %s, consuming the state and returning the next one.\n", label, t.Act, t.Act.Peer)
	if goType == "" {
		g.pf("func (s %s) Send%s() (%s, error) {\n", state, label, next)
		g.pf("\tif err := s.st.UseAs(%q); err != nil {\n\t\treturn %s{}, err\n\t}\n", g.stateRef(state), next)
		g.pf("\tif err := s.ep.send%s.Send(Label%s, nil); err != nil {\n\t\treturn %s{}, err\n\t}\n", peer, label, next)
	} else {
		g.pf("func (s %s) Send%s(payload %s) (%s, error) {\n", state, label, goType, next)
		g.pf("\tif err := s.st.UseAs(%q); err != nil {\n\t\treturn %s{}, err\n\t}\n", g.stateRef(state), next)
		g.pf("\tif err := s.ep.send%s.Send(Label%s, payload); err != nil {\n\t\treturn %s{}, err\n\t}\n", peer, label, next)
	}
	g.pf("\treturn %s{ep: s.ep, st: s.st.Next()}, nil\n}\n\n", next)

	// The non-blocking stepping face: on session.ErrWouldBlock the state is
	// NOT consumed, so the caller (an event loop or internal/sched worker)
	// retries the same state value once the peer makes progress; every other
	// outcome consumes the state exactly as the blocking method does.
	arg, val := "", "nil"
	if goType != "" {
		arg, val = "payload "+goType, "payload"
	}
	g.pf("// TrySend%s is the non-blocking Send%s: it returns session.ErrWouldBlock —\n// leaving the state live for a retry — when the outgoing route is full.\n", label, label)
	g.pf("func (s %s) TrySend%s(%s) (%s, error) {\n", state, label, arg, next)
	g.pf("\tif err := s.st.PeekAs(%q); err != nil {\n\t\treturn %s{}, err\n\t}\n", g.stateRef(state), next)
	g.pf("\tif err := s.ep.send%s.TrySend(Label%s, %s); err != nil {\n", peer, label, val)
	g.pf("\t\tif !errors.Is(err, session.ErrWouldBlock) {\n\t\t\ts.st.Advance()\n\t\t}\n\t\treturn %s{}, err\n\t}\n", next)
	g.pf("\treturn %s{ep: s.ep, st: s.st.Advance()}, nil\n}\n\n", next)
}

func (g *generator) emitRecvSingle(rg *roleGen, state string, t fsm.Transition) {
	peer := exportIdent(string(t.Act.Peer))
	label := exportIdent(string(t.Act.Label))
	next := rg.stateName(t.To)
	goType, conv := sortGo(t.Act.Sort)
	g.pf("// Recv%s receives %s from %s, consuming the state and returning the next one.\n", label, t.Act, t.Act.Peer)
	if goType == "" {
		g.pf("func (s %s) Recv%s() (%s, error) {\n", state, label, next)
		g.pf("\tif err := s.st.UseAs(%q); err != nil {\n\t\treturn %s{}, err\n\t}\n", g.stateRef(state), next)
		g.pf("\tlabel, _, err := s.ep.recv%s.Recv()\n\tif err != nil {\n\t\treturn %s{}, err\n\t}\n", peer, next)
		g.pf("\tif label != Label%s {\n\t\treturn %s{}, genrt.Unexpected(Role%s, %q, Role%s, label)\n\t}\n", label, next, rg.ident, state, peer)
		g.pf("\treturn %s{ep: s.ep, st: s.st.Next()}, nil\n}\n\n", next)
		g.emitTryRecvSingle(rg, state, t)
		return
	}
	zero := zeroOf(goType)
	g.pf("func (s %s) Recv%s() (%s, %s, error) {\n", state, label, goType, next)
	g.pf("\tif err := s.st.UseAs(%q); err != nil {\n\t\treturn %s, %s{}, err\n\t}\n", g.stateRef(state), zero, next)
	g.pf("\tlabel, v, err := s.ep.recv%s.Recv()\n\tif err != nil {\n\t\treturn %s, %s{}, err\n\t}\n", peer, zero, next)
	g.pf("\tif label != Label%s {\n\t\treturn %s, %s{}, genrt.Unexpected(Role%s, %q, Role%s, label)\n\t}\n", label, zero, next, rg.ident, state, peer)
	g.pf("\tpayload, err := %s\n\tif err != nil {\n\t\treturn %s, %s{}, err\n\t}\n", conv, zero, next)
	g.pf("\treturn payload, %s{ep: s.ep, st: s.st.Next()}, nil\n}\n\n", next)
	g.emitTryRecvSingle(rg, state, t)
}

// emitTryRecvSingle emits the non-blocking face of a single-transition
// receive: session.ErrWouldBlock (nothing arrived yet) leaves the state
// live; a delivered message consumes it, whether it converts or faults.
func (g *generator) emitTryRecvSingle(rg *roleGen, state string, t fsm.Transition) {
	peer := exportIdent(string(t.Act.Peer))
	label := exportIdent(string(t.Act.Label))
	next := rg.stateName(t.To)
	goType, conv := sortGo(t.Act.Sort)
	g.pf("// TryRecv%s is the non-blocking Recv%s: it returns session.ErrWouldBlock —\n// leaving the state live for a retry — when no message has arrived yet.\n", label, label)
	if goType == "" {
		g.pf("func (s %s) TryRecv%s() (%s, error) {\n", state, label, next)
		g.pf("\tif err := s.st.PeekAs(%q); err != nil {\n\t\treturn %s{}, err\n\t}\n", g.stateRef(state), next)
		g.pf("\tlabel, _, err := s.ep.recv%s.TryRecv()\n\tif err != nil {\n", peer)
		g.pf("\t\tif !errors.Is(err, session.ErrWouldBlock) {\n\t\t\ts.st.Advance()\n\t\t}\n\t\treturn %s{}, err\n\t}\n", next)
		g.pf("\tif label != Label%s {\n\t\ts.st.Advance()\n\t\treturn %s{}, genrt.Unexpected(Role%s, %q, Role%s, label)\n\t}\n", label, next, rg.ident, state, peer)
		g.pf("\treturn %s{ep: s.ep, st: s.st.Advance()}, nil\n}\n\n", next)
		return
	}
	zero := zeroOf(goType)
	g.pf("func (s %s) TryRecv%s() (%s, %s, error) {\n", state, label, goType, next)
	g.pf("\tif err := s.st.PeekAs(%q); err != nil {\n\t\treturn %s, %s{}, err\n\t}\n", g.stateRef(state), zero, next)
	g.pf("\tlabel, v, err := s.ep.recv%s.TryRecv()\n\tif err != nil {\n", peer)
	g.pf("\t\tif !errors.Is(err, session.ErrWouldBlock) {\n\t\t\ts.st.Advance()\n\t\t}\n\t\treturn %s, %s{}, err\n\t}\n", zero, next)
	g.pf("\tif label != Label%s {\n\t\ts.st.Advance()\n\t\treturn %s, %s{}, genrt.Unexpected(Role%s, %q, Role%s, label)\n\t}\n", label, zero, next, rg.ident, state, peer)
	g.pf("\tpayload, err := %s\n\tif err != nil {\n\t\ts.st.Advance()\n\t\treturn %s, %s{}, err\n\t}\n", conv, zero, next)
	g.pf("\treturn payload, %s{ep: s.ep, st: s.st.Advance()}, nil\n}\n\n", next)
}

func (g *generator) emitRecvBranch(rg *roleGen, state string, s fsm.State, ts []fsm.Transition) {
	peer := exportIdent(string(ts[0].Act.Peer))
	sum := state + "Branch"
	anyPayload := false
	for _, t := range ts {
		if gt, _ := sortGo(t.Act.Sort); gt != "" {
			anyPayload = true
		}
	}

	g.pf("// %s is the one-shot outcome of %s.Branch: exactly one case is live,\n", sum, state)
	g.pf("// discriminated by Label; the continuations of the cases not taken are\n// permanently consumed (driving them fails with genrt.ErrStateConsumed).\n//\n//sessgen:branch\n")
	g.pf("type %s struct {\n\t// Label is the received label, selecting the live case.\n\tLabel types.Label\n", sum)
	for _, t := range ts {
		label := exportIdent(string(t.Act.Label))
		goType, _ := sortGo(t.Act.Sort)
		next := [2]string{label + "Next", rg.stateName(t.To)}
		if goType != "" {
			g.pf("\t// %sPayload and %sNext are live when Label == Label%s.\n", label, label, label)
			g.aligned([][2]string{{label + "Payload", goType}, next})
		} else {
			g.pf("\t// %sNext is live when Label == Label%s.\n", label, label)
			g.aligned([][2]string{next})
		}
	}
	g.pf("}\n\n")

	g.pf("// Branch receives the next message from %s and returns the branch it\n// selects, consuming the state.\n", ts[0].Act.Peer)
	g.pf("func (s %s) Branch() (%s, error) {\n", state, sum)
	g.pf("\tif err := s.st.UseAs(%q); err != nil {\n\t\treturn %s{}, err\n\t}\n", g.stateRef(state), sum)
	if anyPayload {
		g.pf("\tlabel, v, err := s.ep.recv%s.Recv()\n", peer)
	} else {
		g.pf("\tlabel, _, err := s.ep.recv%s.Recv()\n", peer)
	}
	g.pf("\tif err != nil {\n\t\treturn %s{}, err\n\t}\n", sum)
	g.pf("\tb := %s{Label: label}\n\tswitch label {\n", sum)
	for _, t := range ts {
		label := exportIdent(string(t.Act.Label))
		goType, conv := sortGo(t.Act.Sort)
		g.pf("\tcase Label%s:\n", label)
		if goType != "" {
			g.pf("\t\tpayload, err := %s\n\t\tif err != nil {\n\t\t\treturn %s{}, err\n\t\t}\n", conv, sum)
			g.pf("\t\tb.%sPayload = payload\n", label)
		}
		g.pf("\t\tb.%sNext = %s{ep: s.ep, st: s.st.Next()}\n", label, rg.stateName(t.To))
	}
	g.pf("\tdefault:\n\t\treturn %s{}, genrt.Unexpected(Role%s, %q, Role%s, label)\n\t}\n", sum, rg.ident, state, peer)
	g.pf("\treturn b, nil\n}\n\n")

	g.pf("// TryBranch is the non-blocking Branch: it returns session.ErrWouldBlock —\n// leaving the state live for a retry — when no message has arrived yet.\n")
	g.pf("func (s %s) TryBranch() (%s, error) {\n", state, sum)
	g.pf("\tif err := s.st.PeekAs(%q); err != nil {\n\t\treturn %s{}, err\n\t}\n", g.stateRef(state), sum)
	if anyPayload {
		g.pf("\tlabel, v, err := s.ep.recv%s.TryRecv()\n", peer)
	} else {
		g.pf("\tlabel, _, err := s.ep.recv%s.TryRecv()\n", peer)
	}
	g.pf("\tif err != nil {\n")
	g.pf("\t\tif !errors.Is(err, session.ErrWouldBlock) {\n\t\t\ts.st.Advance()\n\t\t}\n\t\treturn %s{}, err\n\t}\n", sum)
	g.pf("\tst := s.st.Advance()\n")
	g.pf("\tb := %s{Label: label}\n\tswitch label {\n", sum)
	for _, t := range ts {
		label := exportIdent(string(t.Act.Label))
		goType, conv := sortGo(t.Act.Sort)
		g.pf("\tcase Label%s:\n", label)
		if goType != "" {
			g.pf("\t\tpayload, err := %s\n\t\tif err != nil {\n\t\t\treturn %s{}, err\n\t\t}\n", conv, sum)
			g.pf("\t\tb.%sPayload = payload\n", label)
		}
		g.pf("\t\tb.%sNext = %s{ep: s.ep, st: st}\n", label, rg.stateName(t.To))
	}
	g.pf("\tdefault:\n\t\treturn %s{}, genrt.Unexpected(Role%s, %q, Role%s, label)\n\t}\n", sum, rg.ident, state, peer)
	g.pf("\treturn b, nil\n}\n\n")
}

// sortGo maps a payload sort to its Go type and the receive-side converter
// call (with v as the wire value). Unit (and the empty sort) means "pure
// signal": no payload parameter or result. The scalar built-ins keep their
// lenient genrt converters (a monitored peer may put an int where an i32 is
// declared, as the monitor's sort check allows); every other sort resolves
// through the types sort registry to its bound Go type and converts with the
// exact typed assertion genrt.As — for slice-backed vector sorts that is a
// zero-copy unwrap of the interface value, no element is touched. Unknown
// sorts cannot reach here: prepare rejects them with a registration hint.
func sortGo(s types.Sort) (goType, convCall string) {
	switch s {
	case types.Unit, "":
		return "", ""
	case types.I32:
		return "int32", "genrt.I32(v)"
	case types.U32:
		return "uint32", "genrt.U32(v)"
	case types.I64:
		return "int64", "genrt.I64(v)"
	case types.U64:
		return "uint64", "genrt.U64(v)"
	case types.Int:
		return "int", "genrt.Int(v)"
	case types.Nat:
		return "uint", "genrt.Nat(v)"
	case types.F64:
		return "float64", "genrt.F64(v)"
	case types.Str:
		return "string", "genrt.Str(v)"
	case types.Bool:
		return "bool", "genrt.Bool(v)"
	default:
		info, ok := types.LookupSort(s)
		if !ok {
			// prepare validated every transition sort; reaching this is a
			// generator bug, not a user error.
			panic(fmt.Sprintf("codegen: unvalidated unknown sort %q", s))
		}
		return info.Go, fmt.Sprintf("genrt.As[%s](%q, v)", info.Go, string(s))
	}
}

func zeroOf(goType string) string {
	switch goType {
	case "string":
		return `""`
	case "bool":
		return "false"
	case "any":
		return "nil"
	case "int32", "uint32", "int64", "uint64", "int", "uint", "float64":
		return "0"
	default:
		// Registered sorts bind arbitrary Go types; *new(T) is T's zero
		// value as an expression (nil for the slice-typed vector sorts).
		return fmt.Sprintf("*new(%s)", goType)
	}
}

// exportIdent mangles an arbitrary protocol identifier into an exported Go
// identifier: invalid runes become underscores, a leading digit is prefixed,
// and the first rune is upper-cased (rune-aware: Scribble identifiers may
// carry any unicode letter).
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
	if unicode.IsDigit(first) {
		out = "X" + out
	}
	return mapFirstRune(out, unicode.ToUpper)
}

// unexportIdent lower-cases the leading rune of an exported identifier.
func unexportIdent(s string) string {
	return mapFirstRune(s, unicode.ToLower)
}

func mapFirstRune(s string, f func(rune) rune) string {
	r, size := utf8.DecodeRuneInString(s)
	return string(f(r)) + s[size:]
}
