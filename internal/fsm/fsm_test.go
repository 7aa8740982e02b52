package fsm

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func TestActionString(t *testing.T) {
	a := Action{Dir: Send, Peer: "s", Label: "ready", Sort: types.Unit}
	if a.String() != "s!ready" {
		t.Errorf("Action.String() = %q", a.String())
	}
	b := Action{Dir: Recv, Peer: "t", Label: "value", Sort: types.I32}
	if b.String() != "t?value(i32)" {
		t.Errorf("Action.String() = %q", b.String())
	}
}

func TestActionDual(t *testing.T) {
	a := Action{Dir: Send, Peer: "q", Label: "l", Sort: types.I32}
	d := a.Dual("p")
	if d.Dir != Recv || d.Peer != "p" || d.Label != "l" || d.Sort != types.I32 {
		t.Errorf("Dual = %+v", d)
	}
	if dd := d.Dual("q"); dd != a {
		t.Errorf("double dual = %+v, want %+v", dd, a)
	}
}

func TestNewMachine(t *testing.T) {
	m := New("k")
	if m.Role() != "k" {
		t.Errorf("Role = %s", m.Role())
	}
	if m.NumStates() != 1 {
		t.Errorf("NumStates = %d", m.NumStates())
	}
	if !m.IsFinal(m.Initial()) {
		t.Error("fresh initial state should be final")
	}
}

func TestAddTransitionRejectsDuplicates(t *testing.T) {
	m := New("k")
	s2 := m.AddState()
	act := Action{Dir: Send, Peer: "s", Label: "ready", Sort: types.Unit}
	if err := m.AddTransition(m.Initial(), act, s2); err != nil {
		t.Fatal(err)
	}
	if err := m.AddTransition(m.Initial(), act, m.Initial()); err == nil {
		t.Error("duplicate action accepted")
	}
	// Same label to a different peer is fine.
	other := Action{Dir: Send, Peer: "t", Label: "ready", Sort: types.Unit}
	if err := m.AddTransition(m.Initial(), other, s2); err != nil {
		t.Errorf("distinct peer rejected: %v", err)
	}
}

func TestFromLocalKernel(t *testing.T) {
	// The double-buffering kernel: mu x. s!ready. s?copy. t?ready. t!copy. x
	typ := types.MustParse("mu x.s!ready.s?copy.t?ready.t!copy.x")
	m, err := FromLocal("k", typ)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the loop: 4 actions then back to start behaviour.
	s := m.Initial()
	want := []string{"s!ready", "s?copy", "t?ready", "t!copy"}
	for i, w := range want {
		ts := m.Transitions(s)
		if len(ts) != 1 {
			t.Fatalf("step %d: %d transitions", i, len(ts))
		}
		if ts[0].Act.String() != w {
			t.Fatalf("step %d: action %s, want %s", i, ts[0].Act, w)
		}
		s = ts[0].To
	}
	// After one full loop we must be at a state with the same behaviour as the
	// initial state.
	ts := m.Transitions(s)
	if len(ts) != 1 || ts[0].Act.String() != "s!ready" {
		t.Errorf("loop does not close: %v", ts)
	}
}

func TestFromLocalChoice(t *testing.T) {
	typ := types.MustParse("t?ready.t!{value(i32).end, stop.end}")
	m, err := FromLocal("s", typ)
	if err != nil {
		t.Fatal(err)
	}
	ts := m.Transitions(m.Initial())
	if len(ts) != 1 || ts[0].Act.String() != "t?ready" {
		t.Fatalf("initial transitions %v", ts)
	}
	ts = m.Transitions(ts[0].To)
	if len(ts) != 2 {
		t.Fatalf("choice has %d branches", len(ts))
	}
	for _, tr := range ts {
		if !m.IsFinal(tr.To) {
			t.Errorf("branch %s does not terminate", tr.Act)
		}
	}
}

func TestFromLocalRejectsIllFormed(t *testing.T) {
	if _, err := FromLocal("p", types.Var{Name: "x"}); err == nil {
		t.Error("unbound variable accepted")
	}
	if _, err := FromLocal("p", types.Rec{Name: "x", Body: types.Var{Name: "x"}}); err == nil {
		t.Error("non-contractive type accepted")
	}
	// Self-directed action.
	if _, err := FromLocal("p", types.MustParse("p!l.end")); err == nil {
		t.Error("self-directed action accepted")
	}
}

func TestDirected(t *testing.T) {
	m := MustFromLocal("s", types.MustParse("t?ready.t!{value.end, stop.end}"))
	if !m.Directed() {
		t.Error("local-type machine should be directed")
	}
	// Build a mixed state by hand.
	mixed := New("p")
	s2 := mixed.AddState()
	mixed.MustAddTransition(mixed.Initial(), Action{Dir: Send, Peer: "q", Label: "a", Sort: types.Unit}, s2)
	mixed.MustAddTransition(mixed.Initial(), Action{Dir: Recv, Peer: "q", Label: "b", Sort: types.Unit}, s2)
	if mixed.Directed() {
		t.Error("mixed state reported directed")
	}
}

func TestReachable(t *testing.T) {
	m := New("p")
	s2 := m.AddState()
	unreachable := m.AddState()
	m.MustAddTransition(m.Initial(), Action{Dir: Send, Peer: "q", Label: "a", Sort: types.Unit}, s2)
	r := m.Reachable()
	if !r[m.Initial()] || !r[s2] {
		t.Error("reachable states missing")
	}
	if r[unreachable] {
		t.Error("unreachable state reported reachable")
	}
}

func TestDot(t *testing.T) {
	m := MustFromLocal("s", types.MustParse("t!{value.end, stop.end}"))
	dot := m.Dot()
	for _, want := range []string{"digraph", "t!value", "t!stop", "doublecircle"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q:\n%s", want, dot)
		}
	}
}

func TestToLocalRoundTrip(t *testing.T) {
	sources := []string{
		"end",
		"mu x0.s!{ready.x0}",
		"mu x0.s!{ready.s?{copy.t?{ready.t!{copy.x0}}}}",
		"t?{ready.t!{value.end, stop.end}}",
		"mu x0.s?{d0.s!{a0.x0}, d1.s!{a1.x0}}",
	}
	for _, src := range sources {
		typ := types.MustParse(src)
		m := MustFromLocal("r", typ)
		back, err := ToLocal(m)
		if err != nil {
			t.Fatalf("ToLocal(%q): %v", src, err)
		}
		// Round trip through FromLocal again: the two machines must be
		// behaviourally identical on a joint walk (structural string match is
		// too strict because binder names may differ).
		m2 := MustFromLocal("r", back)
		if !bisimilar(m, m2) {
			t.Errorf("round trip changed behaviour: %q -> %q", src, back)
		}
	}
}

func TestToLocalRejectsMixed(t *testing.T) {
	mixed := New("p")
	s2 := mixed.AddState()
	mixed.MustAddTransition(mixed.Initial(), Action{Dir: Send, Peer: "q", Label: "a", Sort: types.Unit}, s2)
	mixed.MustAddTransition(mixed.Initial(), Action{Dir: Recv, Peer: "q", Label: "b", Sort: types.Unit}, s2)
	if _, err := ToLocal(mixed); err == nil {
		t.Error("mixed machine converted to local type")
	}
}

// bisimilar checks behavioural equality of two deterministic machines by a
// joint walk over action-matched transitions.
func bisimilar(a, b *FSM) bool {
	type pair struct{ x, y State }
	seen := map[pair]bool{}
	var walk func(x, y State) bool
	walk = func(x, y State) bool {
		p := pair{x, y}
		if seen[p] {
			return true
		}
		seen[p] = true
		ta, tb := a.Transitions(x), b.Transitions(y)
		if len(ta) != len(tb) {
			return false
		}
		for _, t1 := range ta {
			found := false
			for _, t2 := range tb {
				if t1.Act == t2.Act {
					if !walk(t1.To, t2.To) {
						return false
					}
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	return walk(a.Initial(), b.Initial())
}

func TestValidate(t *testing.T) {
	m := New("p")
	m.next[0] = append(m.next[0], Transition{Act: Action{Dir: Send, Peer: "q", Label: "l"}, To: 99})
	if err := m.Validate(); err == nil {
		t.Error("dangling transition accepted")
	}
}

func TestSetInitial(t *testing.T) {
	m := New("p")
	s2 := m.AddState()
	m.SetInitial(s2)
	if m.Initial() != s2 {
		t.Error("SetInitial did not take effect")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetInitial out of range did not panic")
		}
	}()
	m.SetInitial(State(42))
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

// SetInitial changes the initial state.
func (m *FSM) SetInitial(s State) {
	m.mustHave(s)
	m.initial = s
}
