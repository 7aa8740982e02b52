package fsm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/types"
)

func TestMarshalRoundTrip(t *testing.T) {
	sources := []string{
		"end",
		"mu x.s!ready.s?copy.t?ready.t!copy.x",
		"t?ready.t!{value(i32).end, stop.end}",
		"mu t.s?{d0.s!a0.t, d1.s!a1.t}",
	}
	for _, src := range sources {
		m := MustFromLocal("r", types.MustParse(src))
		text := Marshal(m)
		back, err := Unmarshal(text)
		if err != nil {
			t.Fatalf("Unmarshal(%q): %v\n%s", src, err, text)
		}
		if back.Role() != "r" {
			t.Errorf("role = %s", back.Role())
		}
		if !bisimilar(m, back) {
			t.Errorf("round trip changed behaviour for %q:\n%s", src, text)
		}
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := MustFromLocal("r", types.MustParse("t!{b.end, a.end, c.end}"))
	if Marshal(m) != Marshal(m) {
		t.Error("Marshal not deterministic")
	}
}

func TestUnmarshalExplicit(t *testing.T) {
	src := `
fsm k
initial 0
# the double-buffering kernel loop
0 s ! ready unit 1
1 s ? value unit 2
2 t ? ready unit 3
3 t ! value unit 0
states 4
`
	m, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Role() != "k" || m.NumStates() != 4 {
		t.Fatalf("role=%s states=%d", m.Role(), m.NumStates())
	}
	ts := m.Transitions(0)
	if len(ts) != 1 || ts[0].Act.String() != "s!ready" {
		t.Errorf("transitions(0) = %v", ts)
	}
}

func TestUnmarshalFinalOnlyStates(t *testing.T) {
	// A machine whose final state has no transitions must keep that state.
	src := "fsm p\ninitial 0\n0 q ! l unit 1\nstates 2\n"
	m, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 2 || !m.IsFinal(1) {
		t.Errorf("states=%d", m.NumStates())
	}
}

func TestUnmarshalErrors(t *testing.T) {
	bad := map[string]string{
		"no header":     "initial 0\n0 q ! l unit 1\n",
		"bad dir":       "fsm p\ninitial 0\n0 q > l unit 1\n",
		"bad from":      "fsm p\ninitial 0\nx q ! l unit 1\n",
		"bad to":        "fsm p\ninitial 0\n0 q ! l unit y\n",
		"short line":    "fsm p\ninitial 0\n0 q !\n",
		"bad initial":   "fsm p\ninitial zz\n",
		"bad states":    "fsm p\ninitial 0\nstates zz\n",
		"self peer":     "fsm p\ninitial 0\n0 p ! l unit 1\n",
		"dup action":    "fsm p\ninitial 0\n0 q ! l unit 1\n0 q ! l unit 0\n",
		"extra fsm arg": "fsm p extra\n",
	}
	for name, src := range bad {
		if _, err := Unmarshal(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMarshalContainsHeader(t *testing.T) {
	m := MustFromLocal("k", types.MustParse("s!ready.end"))
	text := Marshal(m)
	for _, frag := range []string{"fsm k", "initial 0", "states"} {
		if !strings.Contains(text, frag) {
			t.Errorf("Marshal output missing %q:\n%s", frag, text)
		}
	}
}

// Marshal renders the machine in a line-oriented text format, the analogue of
// the CFSM files exchanged between Rumpsteak's serialiser and the k-MC tool
// (§2.2). The format is stable and diff-friendly:
//
//	fsm <role>
//	initial <state>
//	<from> <peer> ! <label> <sort> <to>
//	<from> <peer> ? <label> <sort> <to>
//
// Transitions are sorted for determinism. Unmarshal parses it back.
func Marshal(m *FSM) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsm %s\n", m.role)
	fmt.Fprintf(&b, "initial %d\n", m.initial)
	var lines []string
	for s, ts := range m.next {
		for _, t := range ts {
			lines = append(lines, fmt.Sprintf("%d %s %s %s %s %d", s, t.Act.Peer, t.Act.Dir, t.Act.Label, t.Act.Sort, t.To))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	// States with no transitions still need to exist after a round trip:
	// record the state count.
	fmt.Fprintf(&b, "states %d\n", len(m.next))
	return b.String()
}

// Unmarshal parses the Marshal format.
func Unmarshal(src string) (*FSM, error) {
	var role types.Role
	initial := State(0)
	stateCount := -1
	type edge struct {
		from State
		act  Action
		to   State
	}
	var edges []edge
	maxState := State(0)

	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "fsm":
			if len(fields) != 2 {
				return nil, fmt.Errorf("fsm: line %d: want 'fsm <role>'", ln+1)
			}
			role = types.Role(fields[1])
		case "initial":
			if len(fields) != 2 {
				return nil, fmt.Errorf("fsm: line %d: want 'initial <state>'", ln+1)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("fsm: line %d: %v", ln+1, err)
			}
			initial = State(v)
		case "states":
			if len(fields) != 2 {
				return nil, fmt.Errorf("fsm: line %d: want 'states <count>'", ln+1)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("fsm: line %d: %v", ln+1, err)
			}
			stateCount = v
		default:
			if len(fields) != 6 {
				return nil, fmt.Errorf("fsm: line %d: want '<from> <peer> <!|?> <label> <sort> <to>'", ln+1)
			}
			from, err := strconv.Atoi(fields[0])
			if err != nil {
				return nil, fmt.Errorf("fsm: line %d: %v", ln+1, err)
			}
			var dir Dir
			switch fields[2] {
			case "!":
				dir = Send
			case "?":
				dir = Recv
			default:
				return nil, fmt.Errorf("fsm: line %d: bad direction %q", ln+1, fields[2])
			}
			to, err := strconv.Atoi(fields[5])
			if err != nil {
				return nil, fmt.Errorf("fsm: line %d: %v", ln+1, err)
			}
			e := edge{
				from: State(from),
				act:  Action{Dir: dir, Peer: types.Role(fields[1]), Label: types.Label(fields[3]), Sort: types.Sort(fields[4])},
				to:   State(to),
			}
			edges = append(edges, e)
			if e.from > maxState {
				maxState = e.from
			}
			if e.to > maxState {
				maxState = e.to
			}
		}
	}
	if role == "" {
		return nil, fmt.Errorf("fsm: missing 'fsm <role>' header")
	}
	n := int(maxState) + 1
	if stateCount > n {
		n = stateCount
	}
	if int(initial) >= n {
		n = int(initial) + 1
	}
	m := &FSM{role: role, initial: initial, next: make([][]Transition, n)}
	for _, e := range edges {
		if err := m.AddTransition(e.from, e.act, e.to); err != nil {
			return nil, err
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
