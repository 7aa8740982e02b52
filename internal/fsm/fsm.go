// Package fsm implements communicating finite state machines: the local-type
// representation that Rumpsteak's algorithms operate on (§2 of the paper).
//
// A machine describes one participant. Transitions are labelled with actions
// p!ℓ(S) (send label ℓ with payload sort S to participant p) or p?ℓ(S)
// (receive). Machines obtained from local session types are *directed*: all
// transitions leaving a state share one direction and one peer. The k-MC
// checker additionally accepts general machines where states may mix actions.
package fsm

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/types"
)

// Dir is the direction of an action.
type Dir int

const (
	// Send is an output action p!ℓ.
	Send Dir = iota
	// Recv is an input action p?ℓ.
	Recv
)

func (d Dir) String() string {
	if d == Send {
		return "!"
	}
	return "?"
}

// Action is a single communication: direction, peer, label and payload sort.
type Action struct {
	Dir   Dir
	Peer  types.Role
	Label types.Label
	Sort  types.Sort
}

func (a Action) String() string {
	s := string(a.Peer) + a.Dir.String() + string(a.Label)
	if a.Sort == types.Unit || a.Sort == "" {
		return s
	}
	return s + "(" + string(a.Sort) + ")"
}

// State identifies a state within a machine.
type State int

// Transition is one outgoing edge of a state.
type Transition struct {
	Act Action
	To  State
}

// FSM is a finite state machine for a single role. The zero value is not
// usable until LoadLocal fills it; construct with New or FromLocal.
type FSM struct {
	role    types.Role
	initial State
	next    [][]Transition
	// trans is the backing array LoadLocal carved next's slices from, and
	// env its builder's binder stack, kept for the next LoadLocal to reuse.
	trans []Transition
	env   []binder
}

// New returns an empty machine for the given role containing a single initial
// state.
//
//repro:keep the kmc, core and codegen tests build their machines with it
func New(role types.Role) *FSM {
	m := &FSM{role: role}
	m.initial = m.AddState()
	return m
}

// Role returns the participant this machine belongs to.
func (m *FSM) Role() types.Role { return m.role }

// Initial returns the initial state.
func (m *FSM) Initial() State { return m.initial }

// NumStates returns the number of states.
func (m *FSM) NumStates() int { return len(m.next) }

// AddState creates a new state and returns its identifier.
func (m *FSM) AddState() State {
	m.next = append(m.next, nil)
	return State(len(m.next) - 1)
}

// AddTransition adds an edge from → to labelled act. Duplicate actions from
// the same state are rejected to keep machines deterministic.
func (m *FSM) AddTransition(from State, act Action, to State) error {
	m.mustHave(from)
	m.mustHave(to)
	if Match(m.next[from], &act) >= 0 {
		return fmt.Errorf("fsm: duplicate action %s from state %d", act, from)
	}
	m.next[from] = append(m.next[from], Transition{Act: act, To: to})
	return nil
}

// Match returns the index in ts of the transition taking *act: the one with
// its direction, peer and label (the sort is not compared), or -1. A
// state's transitions differ in one of the three (AddTransition), so at
// most one matches. act is a pointer so that the inlined call copies no
// Action on the monitor's and the stepper's hot paths.
func Match(ts []Transition, act *Action) int {
	for i := range ts {
		if ts[i].Act.Dir == act.Dir && ts[i].Act.Peer == act.Peer && ts[i].Act.Label == act.Label {
			return i
		}
	}
	return -1
}

// MustAddTransition is AddTransition but panics on error; for protocol tables
// built from literals.
//
//repro:keep the kmc, core and codegen tests build their machines with it
func (m *FSM) MustAddTransition(from State, act Action, to State) {
	if err := m.AddTransition(from, act, to); err != nil {
		panic(err)
	}
}

// Transitions returns the outgoing edges of s. The returned slice must not be
// modified.
func (m *FSM) Transitions(s State) []Transition {
	m.mustHave(s)
	return m.next[s]
}

// IsFinal reports whether s has no outgoing transitions.
func (m *FSM) IsFinal(s State) bool { return len(m.Transitions(s)) == 0 }

func (m *FSM) mustHave(s State) {
	if s < 0 || int(s) >= len(m.next) {
		panic(fmt.Sprintf("fsm: state %d out of range (machine has %d states)", s, len(m.next)))
	}
}

// Directed reports whether every state's outgoing transitions share a single
// direction and peer — the shape of machines derived from local session types
// (Definition 1). The k-MC checker accepts non-directed machines; the
// subtyping algorithm requires directed ones.
func (m *FSM) Directed() bool {
	for s := range m.next {
		ts := m.next[s]
		for i := 1; i < len(ts); i++ {
			if ts[i].Act.Dir != ts[0].Act.Dir || ts[i].Act.Peer != ts[0].Act.Peer {
				return false
			}
		}
	}
	return true
}

// Validate checks structural sanity: every transition targets an existing
// state and no action mentions the machine's own role as peer.
func (m *FSM) Validate() error {
	for s, ts := range m.next {
		for _, t := range ts {
			if t.To < 0 || int(t.To) >= len(m.next) {
				return fmt.Errorf("fsm: state %d has transition to missing state %d", s, t.To)
			}
			if t.Act.Peer == m.role {
				return fmt.Errorf("fsm: state %d has self-directed action %s", s, t.Act)
			}
		}
	}
	return nil
}

// Reachable returns the set of states reachable from the initial state.
func (m *FSM) Reachable() map[State]bool {
	seen := map[State]bool{m.initial: true}
	stack := []State{m.initial}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range m.next[s] {
			if !seen[t.To] {
				seen[t.To] = true
				stack = append(stack, t.To)
			}
		}
	}
	return seen
}

// Dot renders the machine in Graphviz DOT format, with the initial state
// marked by an incoming arrow.
func (m *FSM) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", string(m.role))
	b.WriteString("  rankdir=LR;\n  node [shape=circle];\n  __start [shape=point];\n")
	fmt.Fprintf(&b, "  __start -> %d;\n", m.initial)
	for s, ts := range m.next {
		if len(ts) == 0 {
			fmt.Fprintf(&b, "  %d [shape=doublecircle];\n", s)
		}
		for _, t := range ts {
			fmt.Fprintf(&b, "  %d -> %d [label=%q];\n", s, t.To, t.Act.String())
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders a compact single-line description, mainly for tests and
// error messages.
func (m *FSM) String() string {
	var parts []string
	for s, ts := range m.next {
		for _, t := range ts {
			parts = append(parts, fmt.Sprintf("%d-%s->%d", s, t.Act, t.To))
		}
	}
	sort.Strings(parts)
	return fmt.Sprintf("fsm(%s init=%d: %s)", m.role, m.initial, strings.Join(parts, " "))
}

// FromLocal converts a well-formed local session type into a machine. This is
// the "serialisation" step of the bottom-up workflow (§2.2): in the Rust
// framework the API type is serialised to an FSM; here the local type plays
// the role of the API.
func FromLocal(role types.Role, t types.Local) (*FSM, error) {
	m := new(FSM)
	if err := m.LoadLocal(role, t); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadLocal makes m the machine FromLocal(role, t) returns, reusing m's
// storage: machines loaded one after another into one FSM allocate only
// when a type outgrows every earlier one. It invalidates every slice
// Transitions returned before. On error m holds no usable machine.
func (m *FSM) LoadLocal(role types.Role, t types.Local) error {
	if err := types.ValidateLocal(t); err != nil {
		return err
	}
	states, trans := localSize(t)
	m.role = role
	m.next = slices.Grow(m.next[:0], states)
	m.trans = slices.Grow(m.trans[:0], trans)[:trans]
	b := builder{m: m, end: -1, trans: m.trans, env: m.env[:0]}
	s, err := b.build(t)
	m.env = b.env[:0]
	if err != nil {
		return err
	}
	m.initial = s
	return m.Validate()
}

// MustFromLocal is FromLocal but panics on error.
func MustFromLocal(role types.Role, t types.Local) *FSM {
	m, err := FromLocal(role, t)
	if err != nil {
		panic(err)
	}
	return m
}

// localSize counts the states and transitions FromLocal builds for t: one
// state per choice and per μ, one shared end state, and one transition per
// branch plus a copy of its body's transitions per μ.
func localSize(t types.Local) (states, trans int) {
	var c sizer
	c.walk(t)
	if c.end {
		c.states++
	}
	return c.states, c.trans
}

// sizer accumulates localSize's counts.
type sizer struct {
	states, trans int
	end           bool
}

func (c *sizer) walk(t types.Local) {
	switch t := t.(type) {
	case types.End:
		c.end = true
	case types.Rec:
		c.states++
		c.trans += len(headBranches(t.Body))
		c.walk(t.Body)
	case types.Send:
		c.states++
		c.trans += len(t.Branches)
		for _, b := range t.Branches {
			c.walk(b.Cont)
		}
	case types.Recv:
		c.states++
		c.trans += len(t.Branches)
		for _, b := range t.Branches {
			c.walk(b.Cont)
		}
	}
}

// headBranches returns the branches of the choice t starts with, under any
// number of μ binders, or nil.
func headBranches(t types.Local) []types.Branch {
	for {
		switch u := t.(type) {
		case types.Rec:
			t = u.Body
		case types.Send:
			return u.Branches
		case types.Recv:
			return u.Branches
		default:
			return nil
		}
	}
}

// builder assigns states to the subterms of one local type.
type builder struct {
	m *FSM
	// env holds the recursion variables in scope, innermost last.
	env []binder
	// end is the one state every end subterm shares, or -1 before the
	// first is built.
	end State
	// trans is the unused tail of the backing array that every state's
	// transitions are carved from, sized by localSize.
	trans []Transition
}

type binder struct {
	name string
	s    State
}

// carve returns an empty slice with room for n transitions, cut from the
// shared backing array; nil (so appends allocate) if the array is spent.
func (b *builder) carve(n int) []Transition {
	if n > len(b.trans) {
		return nil
	}
	out := b.trans[:0:n]
	b.trans = b.trans[n:]
	return out
}

// build assigns a state to the subterm t.
func (b *builder) build(t types.Local) (State, error) {
	m := b.m
	switch t := t.(type) {
	case types.End:
		if b.end < 0 {
			b.end = m.AddState()
		}
		return b.end, nil
	case types.Var:
		for i := len(b.env) - 1; i >= 0; i-- {
			if b.env[i].name == t.Name {
				return b.env[i].s, nil
			}
		}
		return 0, fmt.Errorf("fsm: unbound variable %q", t.Name)
	case types.Rec:
		// Pre-allocate the state so the body's occurrences of the variable
		// loop back to it.
		s := m.AddState()
		b.env = append(b.env, binder{t.Name, s})
		body, err := b.build(t.Body)
		b.env = b.env[:len(b.env)-1]
		if err != nil {
			return 0, err
		}
		// The μ node itself performs no action: alias it to the body by
		// copying the body's transitions. (The body state is freshly built
		// and distinct unless the body is a bare variable, which
		// contractivity rules out.)
		m.next[s] = append(b.carve(len(m.next[body])), m.next[body]...)
		return s, nil
	case types.Send:
		return b.buildChoice(Send, t.Peer, t.Branches)
	case types.Recv:
		return b.buildChoice(Recv, t.Peer, t.Branches)
	default:
		return 0, fmt.Errorf("fsm: unknown local type %T", t)
	}
}

// buildChoice assigns a state to a choice. LoadLocal validated the type,
// so the branches' labels are distinct and AddTransition's duplicate check
// is not needed.
func (b *builder) buildChoice(dir Dir, peer types.Role, branches []types.Branch) (State, error) {
	m := b.m
	s := m.AddState()
	m.next[s] = b.carve(len(branches))
	for _, br := range branches {
		to, err := b.build(br.Cont)
		if err != nil {
			return 0, err
		}
		act := Action{Dir: dir, Peer: peer, Label: br.Label, Sort: normSort(br.Sort)}
		m.next[s] = append(m.next[s], Transition{Act: act, To: to})
	}
	return s, nil
}

func normSort(s types.Sort) types.Sort {
	if s == "" {
		return types.Unit
	}
	return s
}

// ToLocal converts a directed machine back into a local session type,
// introducing μ-binders at the targets of back edges. Fails if the machine is
// not directed.
func ToLocal(m *FSM) (types.Local, error) {
	if !m.Directed() {
		return nil, fmt.Errorf("fsm: machine for %s is not directed; no local type exists", m.role)
	}
	// First find the states that need a binder: targets of edges discovered
	// while the target is still on the DFS stack.
	loop := make([]bool, m.NumStates())
	color := make([]uint8, m.NumStates()) // 0 white, 1 grey, 2 black
	var dfs func(State)
	dfs = func(s State) {
		color[s] = 1
		for _, t := range m.next[s] {
			switch color[t.To] {
			case 0:
				dfs(t.To)
			case 1:
				loop[t.To] = true
			}
		}
		color[s] = 2
	}
	dfs(m.initial)

	names := make([]string, m.NumStates())
	i := 0
	for s := range m.next {
		if loop[s] {
			names[s] = "x" + strconv.Itoa(i)
			i++
		}
	}

	emitting := make([]bool, m.NumStates())
	var emit func(State) (types.Local, error)
	emit = func(s State) (types.Local, error) {
		if emitting[s] {
			return types.Var{Name: names[s]}, nil
		}
		ts := m.next[s]
		if len(ts) == 0 {
			return types.End{}, nil
		}
		if loop[s] {
			emitting[s] = true
			defer func() { emitting[s] = false }()
		}
		branches := make([]types.Branch, len(ts))
		for i, t := range ts {
			cont, err := emit(t.To)
			if err != nil {
				return nil, err
			}
			branches[i] = types.Branch{Label: t.Act.Label, Sort: t.Act.Sort, Cont: cont}
		}
		var body types.Local
		if ts[0].Act.Dir == Send {
			body = types.Send{Peer: ts[0].Act.Peer, Branches: branches}
		} else {
			body = types.Recv{Peer: ts[0].Act.Peer, Branches: branches}
		}
		if loop[s] {
			return types.Rec{Name: names[s], Body: body}, nil
		}
		return body, nil
	}
	return emit(m.initial)
}
