package session

import (
	"errors"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/types"
)

// twoAdderSession builds a monitored two-role session (the νScr two-party
// adder) for the non-blocking endpoint tests.
func twoAdderSession(t *testing.T) *Session {
	t.Helper()
	g := types.MustParseGlobal("mu t.c->s:{add(i32).c->s:num(i32).s->c:sum(i32).t, bye.s->c:bye.end}")
	sess, err := TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	return sess
}

func TestTryRecvMsgWouldBlockThenDelivers(t *testing.T) {
	sess := twoAdderSession(t)
	c, err := sess.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sess.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	c.mon.reset()
	s.mon.reset()

	// Nothing sent yet: the receive must refuse without stepping the monitor.
	before := s.mon.State()
	if _, _, err := s.TryRecvMsg("c"); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("TryRecvMsg on empty route: %v, want ErrWouldBlock", err)
	}
	if s.mon.State() != before {
		t.Fatalf("monitor moved on a would-block receive: %v -> %v", before, s.mon.State())
	}

	if err := c.TrySendMsg("s", "add", nil); err != nil {
		t.Fatalf("TrySendMsg: %v", err)
	}
	label, _, err := s.TryRecvMsg("c")
	if err != nil {
		t.Fatalf("TryRecvMsg after send: %v", err)
	}
	if label != "add" {
		t.Fatalf("received %q, want add", label)
	}
	if s.mon.State() == before {
		t.Fatalf("monitor did not commit on a delivered receive")
	}
}

func TestTrySendMsgMonitorRejectsWithoutCommit(t *testing.T) {
	sess := twoAdderSession(t)
	c, err := sess.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	c.mon.reset()
	before := c.mon.State()

	// "sum" is not a client action at the initial state: the monitor must
	// fault and stay put, exactly as for a blocking Send.
	var perr *ProtocolError
	if err := c.TrySendMsg("s", "sum", nil); !errors.As(err, &perr) {
		t.Fatalf("TrySendMsg with illegal label: %v, want ProtocolError", err)
	}
	if c.mon.State() != before {
		t.Fatalf("monitor moved on a rejected send")
	}

	// An ill-sorted payload is refused after the FSM match, and the
	// tentative FSM step must be rewound.
	var serr *SortError
	if err := c.TrySendMsg("s", "add", "not-a-unit"); !errors.As(err, &serr) {
		t.Fatalf("TrySendMsg with ill-sorted payload: %v, want SortError", err)
	}
	if c.mon.State() != before {
		t.Fatalf("monitor moved on an ill-sorted send")
	}

	// The legal action still runs afterwards.
	if err := c.TrySendMsg("s", "add", nil); err != nil {
		t.Fatalf("TrySendMsg after rejections: %v", err)
	}
}

func TestTrySendMsgWouldBlockRewindsMonitor(t *testing.T) {
	// A 1-bounded network makes the second send refuse; the monitor must
	// rewind so the retry replays the same transition.
	g := types.MustParseGlobal("mu t.a->b:v.t")
	sess, err := TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	sess.Rewire(func(roles ...types.Role) *Network { return NewBoundedNetwork(1, roles...) })
	a, err := sess.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	a.mon.reset()
	if err := a.TrySendMsg("b", "v", nil); err != nil {
		t.Fatalf("first TrySendMsg: %v", err)
	}
	after := a.mon.State()
	for i := 0; i < 3; i++ {
		if err := a.TrySendMsg("b", "v", nil); !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("TrySendMsg on full route: %v, want ErrWouldBlock", err)
		}
		if a.mon.State() != after {
			t.Fatalf("monitor moved on a would-block send")
		}
	}
}

// TestForkPreservesSubstrate pins that Fork carries the parent's network
// constructor: a session Rewired onto a 1-bounded network forks 1-bounded
// instances (the k-MC execution model), not the unbounded default.
func TestForkPreservesSubstrate(t *testing.T) {
	g := types.MustParseGlobal("mu t.a->b:v.t")
	sess, err := TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	sess.Rewire(func(roles ...types.Role) *Network { return NewBoundedNetwork(1, roles...) })
	fork := sess.Fork()
	a, err := fork.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	a.mon.reset()
	if err := a.TrySendMsg("b", "v", nil); err != nil {
		t.Fatalf("first send on fork: %v", err)
	}
	if err := a.TrySendMsg("b", "v", nil); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("second send on a forked 1-bounded route: %v, want ErrWouldBlock", err)
	}
}

// TestForkLocalRoutes pins which forks get single-owner routes: ForkLocal
// of a session on the default network builds channel.Local routes, Fork of
// it keeps channel.RingQueue, and a Rewired session forks on its own
// substrate either way. A Local fork recycles through Session.Reset, which
// also clears the endpoints' deadlines.
func TestForkLocalRoutes(t *testing.T) {
	g := types.MustParseGlobal("mu t.a->b:v.t")
	sess, err := TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	routeOf := func(s *Session) channel.Substrate {
		t.Helper()
		q, err := s.net.queue("a", "b")
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	if _, ok := routeOf(sess.Fork()).(*channel.RingQueue); !ok {
		t.Errorf("Fork of a default session: route %T, want *channel.RingQueue", routeOf(sess.Fork()))
	}
	local := sess.ForkLocal()
	if _, ok := routeOf(local).(*channel.Local); !ok {
		t.Errorf("ForkLocal of a default session: route %T, want *channel.Local", routeOf(local))
	}
	a, err := local.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	a.SetDeadline(time.Now().Add(time.Hour))
	if err := a.TrySendMsg("b", "v", nil); err != nil {
		t.Fatalf("send on a Local fork: %v", err)
	}
	local.Abort(errors.New("boom"))
	if !local.Reset() {
		t.Fatal("Reset declined a Local fork")
	}
	if !a.deadline.IsZero() {
		t.Error("Reset kept the endpoint's deadline")
	}
	if q := routeOf(local).(*channel.Local); q.Len() != 0 {
		t.Errorf("Reset left %d messages on the route", q.Len())
	}
	a.mon.reset()
	if err := a.TrySendMsg("b", "v", nil); err != nil {
		t.Fatalf("send on the reset fork: %v", err)
	}

	sess.Rewire(func(roles ...types.Role) *Network { return NewBoundedNetwork(1, roles...) })
	for name, fork := range map[string]*Session{"Fork": sess.Fork(), "ForkLocal": sess.ForkLocal()} {
		if _, ok := routeOf(fork).(*channel.Ring); !ok {
			t.Errorf("%s of a Rewired session: route %T, want *channel.Ring", name, routeOf(fork))
		}
	}
}

func TestStepperLinearityAndRelease(t *testing.T) {
	sess := twoAdderSession(t)
	c, err := sess.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(c, sess.FSM("c"), FirstBranch{}, 100)
	if err != nil {
		t.Fatalf("NewStepper: %v", err)
	}
	if _, err := NewStepper(c, sess.FSM("c"), FirstBranch{}, 100); !errors.Is(err, ErrLinearity) {
		t.Fatalf("second NewStepper on a claimed endpoint: %v, want ErrLinearity", err)
	}
	if err := TrySession(c, func(*Endpoint) error { return nil }); !errors.Is(err, ErrLinearity) {
		t.Fatalf("TrySession on a stepped endpoint: %v, want ErrLinearity", err)
	}
	st.Abort()
	if !st.Done() {
		t.Fatalf("aborted stepper not done")
	}
	if _, err := st.Step(); !errors.Is(err, ErrStepperDone) {
		t.Fatalf("Step after abort: %v, want ErrStepperDone", err)
	}
	// The endpoint is claimable again.
	st2, err := NewStepper(c, sess.FSM("c"), FirstBranch{}, 100)
	if err != nil {
		t.Fatalf("NewStepper after release: %v", err)
	}
	st2.Abort()
}

// TestStepperPingPongSingleGoroutine steps both roles of the adder from one
// goroutine — the scheduler's execution shape in miniature — and checks the
// budget sentinel, the would-block yields and completion.
func TestStepperPingPongSingleGoroutine(t *testing.T) {
	sess := twoAdderSession(t)
	c, err := sess.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sess.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	// The client runs two add exchanges (3 actions each) then the farewell
	// (2 actions); budgets are generous, completion comes from the
	// protocol's own end.
	cs, err := NewStepper(c, sess.FSM("c"), &addThenBye{adds: 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStepper(s, sess.FSM("s"), FirstBranch{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	live := []*Stepper{cs, ss}
	sawWouldBlock := false
	for guard := 0; len(live) > 0; guard++ {
		if guard > 10000 {
			t.Fatalf("steppers did not converge")
		}
		next := live[:0]
		for _, st := range live {
			done, err := st.Step()
			if err != nil && !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("role %s: %v", st.Role(), err)
			}
			if errors.Is(err, ErrWouldBlock) {
				sawWouldBlock = true
			}
			if !done {
				next = append(next, st)
			}
		}
		live = append([]*Stepper(nil), next...)
	}
	if !sawWouldBlock {
		t.Fatalf("expected at least one would-block yield in a lockstep round-robin")
	}
	if cs.Steps() == 0 || ss.Steps() == 0 {
		t.Fatalf("steppers performed no actions: c=%d s=%d", cs.Steps(), ss.Steps())
	}
	if cs.Steps() != ss.Steps() {
		t.Fatalf("adder roles performed different action counts: c=%d s=%d", cs.Steps(), ss.Steps())
	}
}

// TestStepperBudgetStops pins the bounded-execution sentinel on an infinite
// protocol: the ring circulates forever, so a budget of n actions ends with
// ErrStopped after exactly n actions.
func TestStepperBudgetStops(t *testing.T) {
	g := types.MustParseGlobal("mu t.a->b:v.b->a:v.t")
	sess, err := TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	a, err := sess.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10
	as, err := NewStepper(a, sess.FSM("a"), FirstBranch{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewStepper(b, sess.FSM("b"), FirstBranch{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	var aErr, bErr error
	for guard := 0; !as.Done() || !bs.Done(); guard++ {
		if guard > 10000 {
			t.Fatalf("budgeted steppers did not stop")
		}
		if !as.Done() {
			if done, err := as.Step(); done {
				aErr = err
			}
		}
		if !bs.Done() {
			if done, err := bs.Step(); done {
				bErr = err
			}
		}
	}
	if !errors.Is(aErr, ErrStopped) || !errors.Is(bErr, ErrStopped) {
		t.Fatalf("budget exhaustion: a=%v b=%v, want ErrStopped", aErr, bErr)
	}
	if as.Steps() != budget || bs.Steps() != budget {
		t.Fatalf("budgets not honoured: a=%d b=%d, want %d", as.Steps(), bs.Steps(), budget)
	}
}

// TestStepperChoiceDecidedOnce pins that a would-blocked internal choice is
// not re-asked: the strategy's Choose must be consulted exactly once per
// performed send even when the first attempts refuse.
func TestStepperChoiceDecidedOnce(t *testing.T) {
	g := types.MustParseGlobal("mu t.a->b:{l.t, r.t}")
	sess, err := TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	sess.Rewire(func(roles ...types.Role) *Network { return NewBoundedNetwork(1, roles...) })
	a, err := sess.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingStrategy{}
	st, err := NewStepper(a, sess.FSM("a"), counting, 100)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := st.Step(); done || err != nil {
		t.Fatalf("first send: done=%v err=%v", done, err)
	}
	// The route (capacity 1) is now full: probes must would-block without
	// consulting Choose again.
	for i := 0; i < 5; i++ {
		if _, err := st.Step(); !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("probe %d: %v, want ErrWouldBlock", i, err)
		}
	}
	if counting.choices != 2 {
		// One decision performed, one pending (decided at the first refused
		// probe) — never re-decided across the retries.
		t.Fatalf("Choose consulted %d times, want 2", counting.choices)
	}
	st.Abort()
}

// addThenBye picks the add branch of the adder's choice a fixed number of
// times, then says bye; non-choice send states pass through.
type addThenBye struct{ adds, n int }

func (a *addThenBye) Choose(_ fsm.State, options []fsm.Transition) int {
	if len(options) == 1 {
		return 0
	}
	a.n++
	want := types.Label("bye")
	if a.n <= a.adds {
		want = "add"
	}
	for i, t := range options {
		if t.Act.Label == want {
			return i
		}
	}
	return 0
}
func (a *addThenBye) Payload(fsm.Action) any   { return nil }
func (a *addThenBye) Received(fsm.Action, any) {}

type countingStrategy struct{ choices int }

func (c *countingStrategy) Choose(_ fsm.State, _ []fsm.Transition) int {
	c.choices++
	return 0
}
func (c *countingStrategy) Payload(fsm.Action) any   { return nil }
func (c *countingStrategy) Received(fsm.Action, any) {}

// TestSteppersReleaseEarlierClaims pins Session.Steppers' failure path:
// when a later role's endpoint is already claimed, the steppers claimed
// before it are aborted, so every endpoint is claimable again once the
// foreign claim is gone.
func TestSteppersReleaseEarlierClaims(t *testing.T) {
	sess := twoAdderSession(t)
	roles := sess.Roles()
	last := roles[len(roles)-1]
	ep, err := sess.Endpoint(last)
	if err != nil {
		t.Fatal(err)
	}
	held, err := NewStepper(ep, sess.FSM(last), FirstBranch{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	strat := func(types.Role) Strategy { return FirstBranch{} }
	budget := func(types.Role) int { return 8 }
	if _, err := sess.Steppers(strat, budget); !errors.Is(err, ErrLinearity) {
		t.Fatalf("Steppers over a claimed %s endpoint: %v, want ErrLinearity", last, err)
	}
	held.Abort()
	steppers, err := sess.Steppers(strat, budget)
	if err != nil {
		t.Fatalf("earlier claims leaked past the failed build: %v", err)
	}
	if len(steppers) != len(roles) {
		t.Fatalf("%d steppers for %d roles", len(steppers), len(roles))
	}
	for i, st := range steppers {
		if st.Role() != roles[i] {
			t.Errorf("stepper %d drives %s, want %s (Roles order)", i, st.Role(), roles[i])
		}
		st.Abort()
	}
}

// TestStepperSentTracksDirection pins the direction report the scheduler
// hands off on: Sent is true after a committed send, false after a
// committed receive, unchanged by a would-block, and false again after
// Reset.
func TestStepperSentTracksDirection(t *testing.T) {
	sess := twoAdderSession(t)
	c, err := sess.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sess.Endpoint("s")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewStepper(c, sess.FSM("c"), &addThenBye{adds: 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStepper(s, sess.FSM("s"), FirstBranch{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	step := func(st *Stepper, wantErr error, wantSent bool) {
		t.Helper()
		if _, err := st.Step(); err != wantErr {
			t.Fatalf("role %s: Step = %v, want %v", st.Role(), err, wantErr)
		}
		if st.Sent() != wantSent {
			t.Fatalf("role %s: Sent = %v, want %v", st.Role(), st.Sent(), wantSent)
		}
	}
	if cs.Sent() || ss.Sent() {
		t.Fatal("Sent is true before any action")
	}
	step(cs, nil, true)           // c!add
	step(cs, nil, true)           // c!num
	step(cs, ErrWouldBlock, true) // c?sum, not sent yet
	step(ss, nil, false)          // s?add
	step(ss, nil, false)          // s?num
	step(ss, nil, true)           // s!sum
	step(cs, nil, false)          // c?sum
	for _, st := range []*Stepper{cs, ss} {
		st.Abort()
	}
	if !sess.Reset() {
		t.Fatal("Session.Reset declined")
	}
	if err := cs.Reset(&addThenBye{adds: 1}, 100); err != nil {
		t.Fatal(err)
	}
	if cs.Sent() {
		t.Fatal("Sent survived Reset")
	}
}
