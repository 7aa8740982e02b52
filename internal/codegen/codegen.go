package codegen

import (
	"bytes"
	"errors"
	"fmt"
	"go/token"
	"slices"
	"strconv"
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
// no re-print pass runs. It parses by construction too, so Generate does
// not parse it: the fixed text is balanced Go, and the varying text is
// identifiers from exportIdent (never keywords), the checked package name,
// strconv.Quote'd strings, escaped comment text (pf's %c), and sort
// bindings that types.RegisterSort parsed once in every position emitted
// here. Whole-file parses run in the tests (TestGenerateIsGofmtCanonical,
// FuzzGenerateNames, goldens), the protofuzz pipeline and cmd/sessgen.
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
	return g.b.Bytes(), nil
}

// generator holds the prepared, deterministic model of the emitted package.
type generator struct {
	b     bytes.Buffer
	proto string
	opts  Options
	fsms  map[types.Role]*fsm.FSM

	labels []labelGen        // sorted by label
	rgs    []*roleGen        // sorted by role
	names  map[string]owner  // emitted top-level identifier -> what owns it
	idents map[string]string // exportIdent of each role and label
	sorts  map[types.Sort]*sortGen
	// extraImports are the packages referenced by registry sort bindings
	// (types.SortInfo.Import) used in this protocol's payloads.
	extraImports map[string]bool
}

type labelGen struct {
	label types.Label
	ident string // exported label identifier, e.g. "Value"
}

// sortGen is a payload sort's Go type and receive-side converter call, as
// sortGo returns them.
type sortGen struct{ goType, conv string }

type roleGen struct {
	role  types.Role
	ident string // exported role identifier, e.g. "S"
	ep    string // endpoint core type, e.g. "sEp"
	newEp string // its constructor, e.g. "newSEp"
	init  string // the initial state's type name

	states      []stateGen // reachable non-final states, ascending
	terminating bool       // a final state is reachable
	local       string     // pretty local type, for comments ("" if not directed-printable)

	sendPeers []peerGen
	recvPeers []peerGen
}

type peerGen struct {
	role  types.Role
	ident string
}

// stateGen is one emitted state type: its names and its transitions, with
// every identifier they need computed once.
type stateGen struct {
	num   string // the state number
	name  string // the emitted type name, e.g. "S3"
	ref   string // qualified by the package, e.g. "streaming.B2", for stamp faults
	trans []transGen
}

type transGen struct {
	act   *fsm.Action // in the machine
	text  string      // act.String()
	to    string      // the target state's number
	next  string      // the target state's type name
	peer  string      // exported peer identifier
	label string      // exported label identifier
	*sortGen
}

func (g *generator) prepare() error {
	roles := make([]types.Role, 0, len(g.fsms))
	names := 0 // identifiers to reserve, but the labels'
	for r, m := range g.fsms {
		roles = append(roles, r)
		names += 4 + m.NumStates()
	}
	slices.Sort(roles)

	g.names = make(map[string]owner, names)
	g.idents = make(map[string]string, len(roles))
	g.extraImports = map[string]bool{}
	g.sorts = map[types.Sort]*sortGen{}
	labelSet := map[types.Label]bool{}

	for _, role := range roles {
		m := g.fsms[role]
		if err := m.Validate(); err != nil {
			return fmt.Errorf("codegen: role %s: %w", role, err)
		}
		if !m.Directed() {
			return fmt.Errorf("codegen: machine for %s is not directed; state-pattern APIs need local-type-shaped machines", role)
		}
		rg := &roleGen{role: role, ident: g.export(string(role))}
		rg.ep = mapFirstRune(rg.ident, unicode.ToLower) + "Ep"
		rg.newEp = "new" + exportIdent(rg.ep)
		if lt, err := fsm.ToLocal(m); err == nil {
			rg.local = lt.String()
		}

		// Type names of the reachable states; all final states share the
		// single End type (final states are behaviourally identical).
		reach := m.Reachable()
		all := make([]fsm.State, 0, len(reach))
		for s := range reach {
			all = append(all, s)
		}
		slices.Sort(all)
		name := make([]string, m.NumStates())
		endName := rg.ident + "End"
		nStates := 0
		for _, s := range all {
			if m.IsFinal(s) {
				rg.terminating = true
				name[s] = endName
				continue
			}
			name[s] = rg.ident + strconv.Itoa(int(s))
			nStates++
		}
		rg.init = name[m.Initial()]

		sends, recvs := map[types.Role]bool{}, map[types.Role]bool{}
		rg.states = make([]stateGen, 0, nStates)
		for _, s := range all {
			if m.IsFinal(s) {
				continue
			}
			ts := m.Transitions(s)
			st := stateGen{num: strconv.Itoa(int(s)), name: name[s], trans: make([]transGen, len(ts))}
			st.ref = g.opts.Package + "." + st.name
			for i := range ts {
				t := &ts[i]
				if !types.KnownSort(t.Act.Sort) {
					return fmt.Errorf("codegen: role %s: payload sort %q is not registered; bind it to a Go type first (types.RegisterSort, or sessgen -sortmap %s=GoType)", role, t.Act.Sort, t.Act.Sort)
				}
				labelSet[t.Act.Label] = true
				if t.Act.Dir == fsm.Send {
					sends[t.Act.Peer] = true
				} else {
					recvs[t.Act.Peer] = true
				}
				st.trans[i] = transGen{
					act:     &t.Act,
					text:    t.Act.String(),
					to:      strconv.Itoa(int(t.To)),
					next:    name[t.To],
					peer:    g.export(string(t.Act.Peer)),
					label:   g.export(string(t.Act.Label)),
					sortGen: g.sortOf(t.Act.Sort),
				}
			}
			rg.states = append(rg.states, st)
		}
		rg.sendPeers = g.peers(sends)
		rg.recvPeers = g.peers(recvs)

		// Reserve the role's top-level identifiers, catching collisions
		// between roles whose mangled names overlap (e.g. "s" state 10 vs a
		// role literally named "s1").
		if err := g.reserve("Role"+rg.ident, owner{what: "role ", name: string(role)}); err != nil {
			return err
		}
		if err := g.reserve(rg.ep, owner{what: "endpoint core of ", name: string(role)}); err != nil {
			return err
		}
		for _, st := range rg.states {
			if err := g.reserve(st.name, owner{what: "state ", num: st.num, name: string(role)}); err != nil {
				return err
			}
			if len(st.trans) > 1 && st.trans[0].act.Dir == fsm.Recv {
				if err := g.reserve(st.name+"Branch", owner{what: "branch sum of state ", num: st.num, name: string(role)}); err != nil {
					return err
				}
			}
		}
		if rg.terminating {
			if err := g.reserve(endName, owner{what: "terminal state of role ", name: string(role)}); err != nil {
				return err
			}
		}
		if err := g.reserve("Run"+rg.ident, owner{what: "runner of role ", name: string(role)}); err != nil {
			return err
		}
		g.rgs = append(g.rgs, rg)
	}

	g.labels = make([]labelGen, 0, len(labelSet))
	for l := range labelSet {
		g.labels = append(g.labels, labelGen{label: l, ident: g.export(string(l))})
	}
	slices.SortFunc(g.labels, func(a, b labelGen) int { return strings.Compare(string(a.label), string(b.label)) })
	for _, l := range g.labels {
		// Two labels that mangle alike collide here too.
		if err := g.reserve("Label"+l.ident, owner{what: "label ", name: string(l.label)}); err != nil {
			return err
		}
	}
	return nil
}

// export is exportIdent, computed once per role or label name.
func (g *generator) export(name string) string {
	id, ok := g.idents[name]
	if !ok {
		id = exportIdent(name)
		g.idents[name] = id
	}
	return id
}

// sortOf is sortGo, computed once per sort, and records the sort binding's
// import.
func (g *generator) sortOf(s types.Sort) *sortGen {
	if sg, ok := g.sorts[s]; ok {
		return sg
	}
	sg := new(sortGen)
	sg.goType, sg.conv = sortGo(s)
	if info, ok := types.LookupSort(s); ok && info.Import != "" {
		g.extraImports[info.Import] = true
	}
	g.sorts[s] = sg
	return sg
}

// ErrIdentCollision reports that two protocol names (roles, labels, or the
// identifiers derived from them) mangle to the same exported Go identifier.
// The protocol itself is fine — it projects and verifies — but the
// generated API cannot render both names; callers that feed arbitrary
// protocols through codegen (internal/protofuzz) classify this rejection
// as by-design rather than a generator bug.
var ErrIdentCollision = errors.New("codegen: identifier collision")

// owner describes what needs an emitted identifier: what, then the state
// number num when it names a state, then the role or label name. The text
// is built only for a collision's error.
type owner struct{ what, num, name string }

func (o owner) String() string {
	if o.num != "" {
		return o.what + o.num + " of role " + o.name
	}
	return o.what + o.name
}

func (g *generator) reserve(name string, o owner) error {
	if prev, ok := g.names[name]; ok {
		return fmt.Errorf("%w: identifier %s needed by %s collides with %s; rename a role or label", ErrIdentCollision, name, o, prev)
	}
	g.names[name] = o
	return nil
}

// peers returns the roles of set in order, with their exported identifiers.
func (g *generator) peers(set map[types.Role]bool) []peerGen {
	out := make([]peerGen, 0, len(set))
	for r := range set {
		out = append(out, peerGen{role: r, ident: g.export(string(r))})
	}
	slices.SortFunc(out, func(a, b peerGen) int { return strings.Compare(string(a.role), string(b.role)) })
	return out
}

// size estimates the emitted source's length from the prepared model, so
// the output buffer is allocated once. The coefficients are fitted to the
// registry and Fig. 7 outputs and round up: the estimate lands 7–16% above
// the emitted length there.
func (g *generator) size() int {
	n := 1024 + 64*len(g.labels)
	for _, rg := range g.rgs {
		n += 1280 + 2*len(rg.local)
		for _, st := range rg.states {
			n += 128
			if len(st.trans) > 1 && st.trans[0].act.Dir == fsm.Recv {
				n += 512 // the branch sum and its switch
			}
			for _, t := range st.trans {
				n += 512 + 24*(len(t.label)+len(t.next)+len(t.peer)+len(t.goType))
			}
		}
	}
	return n
}

// pf appends format to the output with its verbs replaced by args in
// order. It knows only the verbs the emitter uses: %s writes the argument,
// %q writes it quoted as fmt's %q does (strconv.Quote), %c writes it as
// comment text (comment). Role names, label names and the texts built from
// them take %q or %c, never %s.
func (g *generator) pf(format string, args ...string) {
	for {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			g.b.WriteString(format)
			return
		}
		g.b.WriteString(format[:i])
		verb := format[i+1]
		format = format[i+2:]
		switch verb {
		case 's':
			g.b.WriteString(args[0])
		case 'q':
			g.b.Write(strconv.AppendQuote(g.b.AvailableBuffer(), args[0]))
		case 'c':
			g.comment(args[0])
		default:
			panic("codegen: pf verb %" + string(verb) + " unsupported")
		}
		args = args[1:]
	}
}

// comment writes s as the text of a // comment. A newline would end the
// comment, and go/scanner refuses a NUL, a byte order mark or invalid
// UTF-8 anywhere in it, so each of those is written as its Go escape
// (\n, \x00, \ufeff, \xff); every other rune is written as is.
func (g *generator) comment(s string) {
	for i, r := range s {
		if r == '\n' || r == 0 || r == '\uFEFF' || r == utf8.RuneError {
			_, n := utf8.DecodeRuneInString(s[i:])
			q := strconv.Quote(s[i : i+n])
			g.b.WriteString(s[:i])
			g.b.WriteString(q[1 : len(q)-1])
			g.comment(s[i+n:])
			return
		}
	}
	g.b.WriteString(s)
}

// aligned writes a run of tab-indented "name rest" rows the way gofmt lays
// out consecutive struct fields or const specs: every name is padded with
// spaces to the widest name in the run plus one. Width counts runes, as
// gofmt's tabwriter does, because Scribble identifiers may be any Unicode
// letter. A run ends wherever gofmt ends one, e.g. at a comment line, so
// callers pass only the rows between such breaks. A row's name is the
// concatenation of its first two strings and its rest that of the others.
func (g *generator) aligned(rows [][4]string) {
	w := 0
	for _, r := range rows {
		w = max(w, utf8.RuneCountInString(r[0])+utf8.RuneCountInString(r[1]))
	}
	for _, r := range rows {
		g.b.WriteByte('\t')
		g.b.WriteString(r[0])
		g.b.WriteString(r[1])
		for n := utf8.RuneCountInString(r[0]) + utf8.RuneCountInString(r[1]); n <= w; n++ {
			g.b.WriteByte(' ')
		}
		g.b.WriteString(r[2])
		g.b.WriteString(r[3])
		g.b.WriteByte('\n')
	}
}

func (g *generator) emit() {
	g.b.Grow(g.size())
	g.pf("// Code generated by sessgen (internal/codegen) from protocol %q, optimised=%s. DO NOT EDIT.\n\n", g.proto, g.opts.Mode.String())
	g.pf("package %s\n\n", g.opts.Package)
	imports := []string{"repro/internal/codegen/genrt", "repro/internal/session", "repro/internal/types"}
	for imp := range g.extraImports {
		imports = append(imports, imp)
	}
	slices.Sort(imports)
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
		rows := make([][4]string, len(g.labels))
		for i, l := range g.labels {
			rows[i] = [4]string{"Label", l.ident, "types.Label = ", strconv.Quote(string(l.label))}
		}
		g.aligned(rows)
		g.pf(")\n\n")
	}

	// Roles.
	g.pf("// Participants of the protocol.\nconst (\n")
	rows := make([][4]string, len(g.rgs))
	for i, rg := range g.rgs {
		rows[i] = [4]string{"Role", rg.ident, "types.Role = ", strconv.Quote(string(rg.role))}
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
	rows := make([][4]string, len(g.rgs))
	for i, rg := range g.rgs {
		rows[i] = [4]string{rg.ident, "", "func(" + rg.init + ") ", procResult(rg)}
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

// procResult is the result list of a role's process function: the End
// value and an error for a terminating protocol, else an error alone.
func procResult(rg *roleGen) string {
	if rg.terminating {
		return "(" + rg.ident + "End, error)"
	}
	return "error"
}

func (g *generator) emitRole(rg *roleGen) {
	g.pf("// ---- role %c ----\n", string(rg.role))
	if rg.local != "" {
		g.pf("//\n// Verified machine: %c\n", rg.local)
	}
	g.pf("\n")

	// Endpoint core: shared stamp counter plus route-bound monitor-free
	// senders and receivers, resolved once at session start.
	g.pf("// %s is role %c's session core: the shared one-shot stamp counter and the\n// pre-resolved monitor-free routes.\n", rg.ep, string(rg.role))
	g.pf("type %s struct {\n", rg.ep)
	rows := make([][4]string, 0, 1+len(rg.sendPeers)+len(rg.recvPeers))
	rows = append(rows, [4]string{"c", "", "*genrt.Core", ""})
	for _, p := range rg.sendPeers {
		rows = append(rows, [4]string{"send", p.ident, "session.UncheckedSend", ""})
	}
	for _, p := range rg.recvPeers {
		rows = append(rows, [4]string{"recv", p.ident, "session.UncheckedRecv", ""})
	}
	g.aligned(rows)
	g.pf("}\n\n")

	g.pf("func %s(c *genrt.Core) (*%s, error) {\n\tep := &%s{c: c}\n\tvar err error\n", rg.newEp, rg.ep, rg.ep)
	for _, p := range rg.sendPeers {
		g.pf("\tif ep.send%s, err = c.U().To(Role%s); err != nil {\n\t\treturn nil, err\n\t}\n", p.ident, p.ident)
	}
	for _, p := range rg.recvPeers {
		g.pf("\tif ep.recv%s, err = c.U().From(Role%s); err != nil {\n\t\treturn nil, err\n\t}\n", p.ident, p.ident)
	}
	g.pf("\treturn ep, nil\n}\n\n")

	// Runner.
	if rg.terminating {
		g.pf("// Run%s runs f as role %c on net with exclusive endpoint ownership. f is\n", rg.ident, string(rg.role))
		g.pf("// handed the initial state and must return the End value: completion of the\n// protocol is witnessed by the live terminal state, not assumed.\n")
		g.pf("func Run%s(net *session.Network, f func(%s) %s) error {\n", rg.ident, rg.init, procResult(rg))
		g.pf("\treturn genrt.Session(net, Role%s, func(c *genrt.Core) error {\n", rg.ident)
		g.pf("\t\tep, err := %s(c)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n", rg.newEp)
		g.pf("\t\tend, err := f(%s{ep: ep, st: c.Init()})\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n", rg.init)
		g.pf("\t\treturn genrt.Finish(c, end.st)\n\t})\n}\n\n")
	} else {
		g.pf("// Run%s runs f as role %c on net with exclusive endpoint ownership. The\n", rg.ident, string(rg.role))
		g.pf("// protocol is infinite (no terminal state is reachable), so completion\n// cannot be witnessed: f stops deliberately by returning, and callers bound\n// iteration counts so all roles stop consistently.\n")
		g.pf("func Run%s(net *session.Network, f func(%s) error) error {\n", rg.ident, rg.init)
		g.pf("\treturn genrt.Session(net, Role%s, func(c *genrt.Core) error {\n", rg.ident)
		g.pf("\t\tep, err := %s(c)\n\t\tif err != nil {\n\t\t\treturn err\n\t\t}\n", rg.newEp)
		g.pf("\t\treturn f(%s{ep: ep, st: c.Init()})\n\t})\n}\n\n", rg.init)
	}

	// End type.
	if rg.terminating {
		g.pf("// %sEnd is role %c's terminal state: obtaining it is only possible by\n// driving the session to completion, and returning it from the process\n// witnesses that completion to Run%s.\n", rg.ident, string(rg.role), rg.ident)
		g.pf("type %sEnd struct {\n\tep *%s\n\tst genrt.St\n}\n\n", rg.ident, rg.ep)
	}

	// States.
	for i := range rg.states {
		g.emitState(rg, &rg.states[i])
	}
}

func (g *generator) emitState(rg *roleGen, st *stateGen) {
	// The //sessgen:state directive is the marker contract with sessvet
	// (internal/lint): analyzers recognise state types structurally by the
	// genrt.St stamp field, and the directive makes the contract visible to
	// humans and other tools without hardcoding package paths. The doc
	// comment lists the state's outgoing edges.
	g.pf("// %s is role %c's protocol state %s: ", st.name, string(rg.role), st.num)
	for i, t := range st.trans {
		if i > 0 {
			g.pf(", ")
		}
		g.pf("%c → state %s", t.text, t.to)
	}
	g.pf(".\n//\n//sessgen:state\ntype %s struct {\n\tep *%s\n\tst genrt.St\n}\n\n", st.name, rg.ep)

	ts := st.trans
	if ts[0].act.Dir == fsm.Send {
		for i := range ts {
			g.emitSend(st, &ts[i])
		}
		return
	}
	if len(ts) == 1 {
		g.emitRecvSingle(st, &ts[0])
		return
	}
	g.emitRecvBranch(rg, st)
}

func (g *generator) emitSend(st *stateGen, t *transGen) {
	arg, val := "", "nil"
	if t.goType != "" {
		arg, val = "payload "+t.goType, "payload"
	}
	g.pf("// Send%s sends %c to %c, consuming the state and returning the next one.\n", t.label, t.text, string(t.act.Peer))
	g.pf("func (s %s) Send%s(%s) (%s, error) {\n", st.name, t.label, arg, t.next)
	g.pf("\tst, err := genrt.Send(s.st, %q, s.ep.send%s, Label%s, %s)\n", st.ref, t.peer, t.label, val)
	g.ret(t.next, "")

	// The non-blocking stepping face: on session.ErrWouldBlock the state is
	// NOT consumed, so the caller (an event loop or internal/sched worker)
	// retries the same state value once the peer makes progress; every other
	// outcome consumes the state exactly as the blocking method does.
	g.pf("// TrySend%s is the non-blocking Send%s: it returns session.ErrWouldBlock —\n// leaving the state live for a retry — when the outgoing route is full.\n", t.label, t.label)
	g.pf("func (s %s) TrySend%s(%s) (%s, error) {\n", st.name, t.label, arg, t.next)
	g.pf("\tst, err := genrt.TrySend(s.st, %q, s.ep.send%s, Label%s, %s)\n", st.ref, t.peer, t.label, val)
	g.ret(t.next, "")
}

// ret closes a single-transition method: the error return with zero
// values, then the successor built from the helper's stamp st, led by the
// received payload when zero (the payload's zero value) is not "".
func (g *generator) ret(next, zero string) {
	if zero == "" {
		g.pf("\tif err != nil {\n\t\treturn %s{}, err\n\t}\n\treturn %s{ep: s.ep, st: st}, nil\n}\n\n", next, next)
		return
	}
	g.pf("\tif err != nil {\n\t\treturn %s, %s{}, err\n\t}\n\treturn payload, %s{ep: s.ep, st: st}, nil\n}\n\n", zero, next, next)
}

// emitRecvSingle emits a single-transition receive and its non-blocking
// face: session.ErrWouldBlock (nothing arrived yet) leaves the state live;
// a delivered message consumes it, whether it converts or faults.
func (g *generator) emitRecvSingle(st *stateGen, t *transGen) {
	lead, lhs, zero, conv := "", "_", "", "genrt.Signal"
	if t.goType != "" {
		lead, lhs, zero, conv = t.goType+", ", "payload", zeroOf(t.goType), convValue(t.goType, t.conv)
	}
	for _, face := range [2]string{"", "Try"} {
		if face == "" {
			g.pf("// Recv%s receives %c from %c, consuming the state and returning the next one.\n", t.label, t.text, string(t.act.Peer))
		} else {
			g.pf("// TryRecv%s is the non-blocking Recv%s: it returns session.ErrWouldBlock —\n// leaving the state live for a retry — when no message has arrived yet.\n", t.label, t.label)
		}
		g.pf("func (s %s) %sRecv%s() (%s%s, error) {\n", st.name, face, t.label, lead, t.next)
		g.pf("\t%s, st, err := genrt.%sRecv(s.st, %q, s.ep.recv%s, Role%s, Label%s, %s)\n", lhs, face, st.ref, t.peer, t.peer, t.label, conv)
		g.ret(t.next, zero)
	}
}

// convValue renders a receive's payload converter as the function value
// genrt.Recv takes: a scalar converter by name, a registry sort's genrt.As
// call inside a literal that captures nothing, so passing it allocates
// nothing.
func convValue(goType, call string) string {
	if f, ok := strings.CutSuffix(call, "(v)"); ok {
		return f
	}
	return "func(v any) (" + goType + ", error) { return " + call + " }"
}

func (g *generator) emitRecvBranch(rg *roleGen, st *stateGen) {
	ts := st.trans
	payload := "_"
	for _, t := range ts {
		if t.goType != "" {
			payload = "v"
		}
	}

	g.pf("// %sBranch is the one-shot outcome of %s.Branch: exactly one case is live,\n", st.name, st.name)
	g.pf("// discriminated by Label; the continuations of the cases not taken are\n// permanently consumed (driving them fails with genrt.ErrStateConsumed).\n//\n//sessgen:branch\n")
	g.pf("type %sBranch struct {\n\t// Label is the received label, selecting the live case.\n\tLabel types.Label\n", st.name)
	for _, t := range ts {
		next := [4]string{t.label, "Next", t.next, ""}
		if t.goType != "" {
			g.pf("\t// %sPayload and %sNext are live when Label == Label%s.\n", t.label, t.label, t.label)
			g.aligned([][4]string{{t.label, "Payload", t.goType, ""}, next})
		} else {
			g.pf("\t// %sNext is live when Label == Label%s.\n", t.label, t.label)
			g.aligned([][4]string{next})
		}
	}
	g.pf("}\n\n")

	g.pf("// Branch receives the next message from %c and returns the branch it\n// selects, consuming the state.\n", string(ts[0].act.Peer))
	g.emitBranchMethod(rg, st, "Branch", payload)
	g.pf("// TryBranch is the non-blocking Branch: it returns session.ErrWouldBlock —\n// leaving the state live for a retry — when no message has arrived yet.\n")
	g.emitBranchMethod(rg, st, "TryBranch", payload)
}

// emitBranchMethod emits Branch or TryBranch (method, which is also the
// genrt helper it calls): the helper receives, then the cases match the
// label and convert the payload (held in v, or discarded as _ when no case
// carries one).
func (g *generator) emitBranchMethod(rg *roleGen, st *stateGen, method, payload string) {
	peer := st.trans[0].peer
	g.pf("func (s %s) %s() (%sBranch, error) {\n", st.name, method, st.name)
	g.pf("\tlabel, %s, st, err := genrt.%s(s.st, %q, s.ep.recv%s)\n", payload, method, st.ref, peer)
	g.pf("\tif err != nil {\n\t\treturn %sBranch{}, err\n\t}\n", st.name)
	g.pf("\tb := %sBranch{Label: label}\n\tswitch label {\n", st.name)
	for _, t := range st.trans {
		g.pf("\tcase Label%s:\n", t.label)
		if t.goType != "" {
			g.pf("\t\tif b.%sPayload, err = %s; err != nil {\n\t\t\treturn %sBranch{}, err\n\t\t}\n", t.label, t.conv, st.name)
		}
		g.pf("\t\tb.%sNext = %s{ep: s.ep, st: st}\n", t.label, t.next)
	}
	g.pf("\tdefault:\n\t\treturn %sBranch{}, genrt.Unexpected(Role%s, %q, Role%s, label)\n\t}\n", st.name, rg.ident, st.name, peer)
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
		return info.Go, "genrt.As[" + info.Go + "](" + strconv.Quote(string(s)) + ", v)"
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
		return "*new(" + goType + ")"
	}
}

// exportIdent mangles an arbitrary protocol identifier into an exported Go
// identifier: invalid runes become underscores and the first rune is
// upper-cased (rune-aware: Scribble identifiers may carry any unicode
// letter). A first rune with no upper-case form — a digit, an underscore, a
// caseless letter such as CJK — is prefixed with X instead.
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
	return mapFirstRune(out, unicode.ToUpper)
}

func mapFirstRune(s string, f func(rune) rune) string {
	r, size := utf8.DecodeRuneInString(s)
	return string(f(r)) + s[size:]
}
