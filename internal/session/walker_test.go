package session

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/types"
)

// This file pins the stepper as its endpoint's monitor: it routes by the
// session's route plan, keeps the checks the verified machine cannot make
// (payload sorts, received labels), rejects machines other than the
// monitor's, and keeps Monitor.State equal to its own state.

// streamingSession verifies the registry Streaming protocol top-down.
func streamingSession(t testing.TB) *Session {
	t.Helper()
	sess, err := TopDown(protocols.Streaming().Global, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	return sess
}

// streamValues sends v as the payload of every value, then takes the stop
// branch once left values were sent (never when left is negative).
type streamValues struct {
	v    any
	left int
}

func (s *streamValues) Choose(_ fsm.State, ts []fsm.Transition) int {
	want := types.Label("value")
	if s.left == 0 {
		want = "stop"
	}
	for i, t := range ts {
		if t.Act.Label == want {
			if want == "value" && s.left > 0 {
				s.left--
			}
			return i
		}
	}
	return 0
}
func (s *streamValues) Payload(act fsm.Action) any {
	if act.Label == "value" {
		return s.v
	}
	return nil
}
func (s *streamValues) Received(fsm.Action, any) {}

// mustStep performs one Step that must commit an action.
func mustStep(t *testing.T, st *Stepper) {
	t.Helper()
	if done, err := st.Step(); done || err != nil {
		t.Fatalf("role %s: Step = (%v, %v), want an action", st.Role(), done, err)
	}
}

// steppersFor claims a stepper per role of sess with the given strategies.
func steppersFor(t *testing.T, sess *Session, strats map[types.Role]Strategy) map[types.Role]*Stepper {
	t.Helper()
	out := map[types.Role]*Stepper{}
	for r, sg := range strats {
		ep, err := sess.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStepper(ep, sess.FSM(r), sg, 100)
		if err != nil {
			t.Fatalf("NewStepper(%s): %v", r, err)
		}
		out[r] = st
	}
	return out
}

func TestStepperWrongSortIsSortError(t *testing.T) {
	sess := streamingSession(t)
	st := steppersFor(t, sess, map[types.Role]Strategy{
		"s": &streamValues{v: "not-an-i32", left: -1},
		"t": FirstBranch{},
	})
	mustStep(t, st["t"]) // t!ready
	mustStep(t, st["s"]) // s?ready
	before := st["s"].e.mon.State()
	done, err := st["s"].Step()
	var serr *SortError
	if !done || !errors.As(err, &serr) {
		t.Fatalf("ill-sorted value: Step = (%v, %v), want done with a *SortError", done, err)
	}
	want := SortError{Role: "s", Act: fsm.Action{Dir: fsm.Send, Peer: "t", Label: "value", Sort: types.I32}, Value: "not-an-i32"}
	if *serr != want {
		t.Fatalf("SortError = %+v, want %+v", *serr, want)
	}
	if got := st["s"].e.mon.State(); got != before {
		t.Fatalf("monitor moved on a refused send: %d -> %d", before, got)
	}
	st["t"].Abort()
}

// badChoice picks an option that does not exist.
type badChoice struct{ FirstBranch }

func (badChoice) Choose(fsm.State, []fsm.Transition) int { return 7 }

func TestStepperOutOfRangeChoiceFails(t *testing.T) {
	sess := twoAdderSession(t)
	c, err := sess.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(c, sess.FSM("c"), badChoice{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	done, err := st.Step()
	if !done || err == nil || !strings.Contains(err.Error(), "strategy chose 7 of 2 options") {
		t.Fatalf("out-of-range choice: Step = (%v, %v), want done with a choice error", done, err)
	}
	if c.mon.State() != sess.FSM("c").Initial() {
		t.Fatalf("monitor moved on a failed choice")
	}
	// The failed stepper released its endpoint.
	st2, err := NewStepper(c, sess.FSM("c"), FirstBranch{}, 100)
	if err != nil {
		t.Fatalf("endpoint not released by the failed stepper: %v", err)
	}
	st2.Abort()
}

func TestStepperUnexpectedLabelIsProtocolError(t *testing.T) {
	sess := twoAdderSession(t)
	s, err := sess.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(s, sess.FSM("s"), FirstBranch{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// A raw, unmonitored handle on the client's routes sends a label the
	// server's machine does not accept in its initial state.
	if err := sess.net.Endpoint("c").TrySendMsg("s", "sum", nil); err != nil {
		t.Fatalf("raw send: %v", err)
	}
	done, err := st.Step()
	var perr *ProtocolError
	if !done || !errors.As(err, &perr) {
		t.Fatalf("unexpected label: Step = (%v, %v), want done with a *ProtocolError", done, err)
	}
	initial := sess.FSM("s").Initial()
	want := ProtocolError{Role: "s", State: initial, Action: fsm.Action{Dir: fsm.Recv, Peer: "c", Label: "sum"}}
	if *perr != want {
		t.Fatalf("ProtocolError = %+v, want %+v", *perr, want)
	}
	if s.mon.State() != initial {
		t.Fatalf("monitor moved on a rejected receive")
	}
}

// TestDriveUnmonitoredUnexpectedLabelIsProtocolError pins the walk's label
// check typed on the path with no monitor in front of it.
func TestDriveUnmonitoredUnexpectedLabelIsProtocolError(t *testing.T) {
	sess := twoAdderSession(t)
	net := NewNetwork(sess.Roles()...)
	if err := net.Endpoint("c").Send("s", "sum", nil); err != nil {
		t.Fatal(err)
	}
	err := Drive(net.Endpoint("s"), sess.FSM("s"), FirstBranch{}, 100)
	var perr *ProtocolError
	if !errors.As(err, &perr) || perr.Role != "s" || perr.Action.Label != "sum" || perr.Cause != nil {
		t.Fatalf("Drive on an unexpected label: %v, want a *ProtocolError for s?sum", err)
	}
}

func TestNewStepperRejectsForeignMachine(t *testing.T) {
	sess := twoAdderSession(t)
	c, err := sess.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	// An equal but distinct machine is foreign too: the stepper stands in
	// for the monitor, so it must walk the monitor's own machine.
	l, err := fsm.ToLocal(sess.FSM("c"))
	if err != nil {
		t.Fatal(err)
	}
	clone, err := fsm.FromLocal("c", l)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*fsm.FSM{"other role": sess.FSM("s"), "clone": clone} {
		if _, err := NewStepper(c, m, FirstBranch{}, 100); !errors.Is(err, ErrForeignMachine) {
			t.Fatalf("NewStepper with the %s's machine: %v, want ErrForeignMachine", name, err)
		}
	}
	st, err := NewStepper(c, sess.FSM("c"), FirstBranch{}, 100)
	if err != nil {
		t.Fatalf("rejected NewStepper left the endpoint claimed: %v", err)
	}
	st.Abort()
}

// runLockstep steps every stepper round-robin until all are done, calling
// check after every committed action; it fails on any error but ErrStopped.
func runLockstep(t *testing.T, steppers []*Stepper, check func(*Stepper)) {
	t.Helper()
	for guard := 0; ; guard++ {
		if guard > 100000 {
			t.Fatalf("steppers did not converge")
		}
		live := false
		for _, st := range steppers {
			if st.Done() {
				continue
			}
			live = true
			done, err := st.Step()
			if err != nil && !errors.Is(err, ErrWouldBlock) && !errors.Is(err, ErrStopped) {
				t.Fatalf("role %s: %v", st.Role(), err)
			}
			if err == nil && !done {
				check(st)
			}
		}
		if !live {
			return
		}
	}
}

func TestMonitorStateFollowsStepper(t *testing.T) {
	sess := twoAdderSession(t)
	st := steppersFor(t, sess, map[types.Role]Strategy{"c": &addThenBye{adds: 3}, "s": FirstBranch{}})
	commits := 0
	runLockstep(t, []*Stepper{st["c"], st["s"]}, func(s *Stepper) {
		commits++
		if got := s.e.mon.State(); got != s.cur {
			t.Fatalf("role %s: Monitor.State() = %d after a committed step, walker at %d", s.Role(), got, s.cur)
		}
	})
	if commits != st["c"].Steps()+st["s"].Steps() {
		t.Fatalf("checked %d commits, steppers performed %d", commits, st["c"].Steps()+st["s"].Steps())
	}
	for r, s := range st {
		if !s.e.mon.Terminal() {
			t.Fatalf("role %s: monitor not terminal after completion", r)
		}
	}
}

// TestForkKeepsRoleOrder pins that a session orders its roles once, sorted:
// every fork reports, claims steppers and indexes routes in the base's
// order.
func TestForkKeepsRoleOrder(t *testing.T) {
	g := types.MustParseGlobal("mu x.a->b:v.b->c:v.c->d:v.d->e:v.e->f:v.f->a:v.x")
	sess, err := TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	want := sess.Roles()
	if len(want) != 6 || !slices.IsSorted(want) {
		t.Fatalf("Roles() = %v, want the ring's 6 roles, sorted", want)
	}
	for i := 0; i < 100; i++ {
		if got := sess.Fork().Roles(); !slices.Equal(got, want) {
			t.Fatalf("fork %d: Roles() = %v, want the base's %v", i, got, want)
		}
	}
}

// TestStepperRoutesWithoutPlanOnReorderedNetwork pins the route plan's
// guard: a network that does not keep the session's role order does not
// get the session's shared plan rows but rows built for its own order, and
// its steppers still route every action correctly.
func TestStepperRoutesWithoutPlanOnReorderedNetwork(t *testing.T) {
	sess := streamingSession(t)
	sess.Rewire(func(roles ...types.Role) *Network {
		reversed := slices.Clone(roles)
		slices.Reverse(reversed)
		return NewNetwork(reversed...)
	})
	st := steppersFor(t, sess, map[types.Role]Strategy{"s": &streamValues{v: int32(1), left: 5}, "t": FirstBranch{}})
	for r, s := range st {
		if sharesRows(s.rows, sess.plan.rows[slices.Index(sess.plan.roles, r)]) {
			t.Fatalf("role %s: the session's route plan attached over a reordered network", r)
		}
	}
	runLockstep(t, []*Stepper{st["s"], st["t"]}, func(*Stepper) {})
	if st["s"].Steps() != 12 || st["t"].Steps() != 12 {
		t.Fatalf("steps s=%d t=%d, want 12 each (5 values, then stop)", st["s"].Steps(), st["t"].Steps())
	}

	plain := streamingSession(t).Fork()
	ep, err := plain.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	if !sharesRows(ep.rows, plain.plan.rows[slices.Index(plain.plan.roles, "s")]) {
		t.Fatalf("fork endpoint does not route by the session's route plan")
	}
}

// sharesRows reports whether two route plans are one plan, not copies.
func sharesRows(a, b [][]int) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
