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
	"sort"
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

// Dual returns the matching action from the peer's perspective, relative to
// the given self role: if a = p!ℓ performed by r, Dual(r) = r?ℓ performed by p.
func (a Action) Dual(self types.Role) Action {
	d := Send
	if a.Dir == Send {
		d = Recv
	}
	return Action{Dir: d, Peer: self, Label: a.Label, Sort: a.Sort}
}

// State identifies a state within a machine.
type State int

// Transition is one outgoing edge of a state.
type Transition struct {
	Act Action
	To  State
}

// FSM is a finite state machine for a single role. The zero value is not
// usable; construct with New.
type FSM struct {
	role    types.Role
	initial State
	next    [][]Transition
}

// New returns an empty machine for the given role containing a single initial
// state.
func New(role types.Role) *FSM {
	m := &FSM{role: role}
	m.initial = m.AddState()
	return m
}

// Role returns the participant this machine belongs to.
func (m *FSM) Role() types.Role { return m.role }

// Initial returns the initial state.
func (m *FSM) Initial() State { return m.initial }

// SetInitial changes the initial state.
func (m *FSM) SetInitial(s State) {
	m.mustHave(s)
	m.initial = s
}

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
	for _, t := range m.next[from] {
		if t.Act.Dir == act.Dir && t.Act.Peer == act.Peer && t.Act.Label == act.Label {
			return fmt.Errorf("fsm: duplicate action %s from state %d", act, from)
		}
	}
	m.next[from] = append(m.next[from], Transition{Act: act, To: to})
	return nil
}

// MustAddTransition is AddTransition but panics on error; for protocol tables
// built from literals.
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
	if err := types.ValidateLocal(t); err != nil {
		return nil, err
	}
	m := &FSM{role: role}
	env := map[string]State{}
	memo := map[string]State{}
	s, err := build(m, t, env, memo)
	if err != nil {
		return nil, err
	}
	m.initial = s
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustFromLocal is FromLocal but panics on error.
func MustFromLocal(role types.Role, t types.Local) *FSM {
	m, err := FromLocal(role, t)
	if err != nil {
		panic(err)
	}
	return m
}

// build assigns a state to the subterm t. env maps recursion variables in
// scope to their states; memo shares states between structurally identical
// closed subterms printed under the current env, which keeps machines small
// when unrolled types repeat.
func build(m *FSM, t types.Local, env map[string]State, memo map[string]State) (State, error) {
	switch t := t.(type) {
	case types.End:
		key := "end"
		if s, ok := memo[key]; ok {
			return s, nil
		}
		s := m.AddState()
		memo[key] = s
		return s, nil
	case types.Var:
		s, ok := env[t.Name]
		if !ok {
			return 0, fmt.Errorf("fsm: unbound variable %q", t.Name)
		}
		return s, nil
	case types.Rec:
		// Pre-allocate the state so the body's occurrences of the variable
		// loop back to it.
		s := m.AddState()
		inner := copyEnv(env)
		inner[t.Name] = s
		body, err := build(m, t.Body, inner, memo)
		if err != nil {
			return 0, err
		}
		// The μ node itself performs no action: alias it to the body by
		// copying the body's transitions. (The body state is freshly built
		// and distinct unless the body is a bare variable, which
		// contractivity rules out.)
		m.next[s] = append([]Transition(nil), m.next[body]...)
		return s, nil
	case types.Send:
		return buildChoice(m, Send, t.Peer, t.Branches, env, memo)
	case types.Recv:
		return buildChoice(m, Recv, t.Peer, t.Branches, env, memo)
	default:
		return 0, fmt.Errorf("fsm: unknown local type %T", t)
	}
}

func buildChoice(m *FSM, dir Dir, peer types.Role, branches []types.Branch, env map[string]State, memo map[string]State) (State, error) {
	s := m.AddState()
	for _, b := range branches {
		to, err := build(m, b.Cont, env, memo)
		if err != nil {
			return 0, err
		}
		act := Action{Dir: dir, Peer: peer, Label: b.Label, Sort: normSort(b.Sort)}
		if err := m.AddTransition(s, act, to); err != nil {
			return 0, err
		}
	}
	return s, nil
}

func normSort(s types.Sort) types.Sort {
	if s == "" {
		return types.Unit
	}
	return s
}

func copyEnv(env map[string]State) map[string]State {
	out := make(map[string]State, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
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
	loop := map[State]bool{}
	color := make([]int, m.NumStates()) // 0 white, 1 grey, 2 black
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

	names := map[State]string{}
	i := 0
	for s := range m.next {
		if loop[State(s)] {
			names[State(s)] = fmt.Sprintf("x%d", i)
			i++
		}
	}

	emitting := map[State]bool{}
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
