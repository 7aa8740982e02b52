package session

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/fsm"
	"repro/internal/types"
)

// Stepper drives a process for an endpoint directly from its verified
// machine — the one place the runtime walks a machine — in non-blocking
// units (Drive is its blocking face): each Step performs at most one
// protocol action with the substrate's TrySend/TryRecv and yields
// ErrWouldBlock, with no effect, when the substrate cannot make progress.
// That inversion is what lets thousands of sessions multiplex over
// a fixed worker pool (internal/sched) instead of parking two goroutines
// each.
//
// On a monitored endpoint the stepper is the monitor: it walks the
// monitor's own machine, so it can only take verified transitions, and it
// makes one transition choice per action instead of having the monitor
// find the transition again. It keeps the checks the machine cannot make —
// the strategy's payload must inhabit the transition's sort (*SortError)
// and a received label must be one the state accepts (*ProtocolError) — and
// moves the monitor to its own state after every committed action, so
// Monitor.State and the ErrIncomplete check keep their meaning. Every
// action is routed by a route plan row: the session's shared one when the
// network keeps the session's role order, else one built when the endpoint
// (or, unmonitored, the stepper) is created.
//
// Lifecycle: NewStepper claims the endpoint (the TrySession linearity CAS)
// and Step releases it when the protocol completes, faults, or exhausts its
// budget; Abort releases it early. (Drive's stepper neither takes nor
// releases one.) A Stepper is not safe for concurrent use — one goroutine
// steps it at a time, which is the scheduler's invariant (each session is
// sharded whole onto one worker).
//
// Determinism: the strategy's Choose and Payload are consulted exactly once
// per performed action — a would-block retry replays the cached decision —
// so a stepped run makes the same choices, sends the same payloads and
// observes the same per-role trace in every execution mode. The trace
// oracle in internal/equiv pins this for every registry protocol.
type Stepper struct {
	m        *fsm.FSM
	strat    Strategy
	cur      fsm.State
	steps    int
	maxSteps int
	// pending caches an internal-choice decision (transition index and
	// payload) taken before a send that then would-block, so retries commit
	// the decided action instead of re-asking the strategy.
	pending        int
	pendingPayload any

	e        *Endpoint
	rows     [][]int // m's route plan on e's network (routePlan)
	finished bool
	claimed  bool // finish releases e's claim (NewStepper); Drive's runs under its caller's
	sent     bool // the last committed action was a send (Sent)
}

// ErrForeignMachine is returned by NewStepper when asked to walk a machine
// other than the monitored endpoint's own: the stepper stands in for the
// monitor, so it may only walk the machine the monitor enforces.
var ErrForeignMachine = errors.New("session: stepper machine is not the endpoint's verified machine")

// NewStepper claims the endpoint and returns a stepper that will drive it
// through at most maxSteps actions of its verified machine, deciding
// internal choices and payloads with strat. On a monitored endpoint m must
// be the monitor's machine (Session.FSM of the role), or NewStepper fails
// with ErrForeignMachine. It fails with ErrLinearity if the endpoint is
// already owned by a running session or another stepper. A monitored
// endpoint's monitor is reset, as at TrySession entry.
func NewStepper(e *Endpoint, m *fsm.FSM, strat Strategy, maxSteps int) (*Stepper, error) {
	st, err := newStepper(e, m, strat, maxSteps)
	if err != nil {
		return nil, err
	}
	if !e.inUse.CompareAndSwap(false, true) {
		return nil, ErrLinearity
	}
	st.claimed = true
	if e.mon != nil {
		e.mon.reset()
	}
	return st, nil
}

// newStepper is NewStepper without the claim.
func newStepper(e *Endpoint, m *fsm.FSM, strat Strategy, maxSteps int) (*Stepper, error) {
	if e.mon != nil && e.mon.fsm != m {
		return nil, fmt.Errorf("%w: role %s", ErrForeignMachine, e.role)
	}
	st := &Stepper{m: m, strat: strat, cur: m.Initial(), maxSteps: maxSteps, pending: -1, e: e, rows: e.rows}
	if st.rows == nil {
		st.rows = routePlan(m, e.net.roles, e.me)
	}
	return st, nil
}

// Reset re-arms a finished stepper over the same endpoint and machine for a
// new protocol instance, replaying NewStepper without the allocation: the
// endpoint is re-claimed (ErrLinearity if something else holds it), its
// monitor rewound, and the walk state cleared. The strategy may differ from
// the previous run's; the caller is responsible for having Reset the
// underlying session's network first (Session.Reset), since a stepper over
// closed routes faults immediately. Resetting an unfinished stepper is a
// caller bug and fails with ErrLinearity (the endpoint is still held).
func (s *Stepper) Reset(strat Strategy, maxSteps int) error {
	if !s.finished {
		return ErrLinearity
	}
	if !s.e.inUse.CompareAndSwap(false, true) {
		return ErrLinearity
	}
	if s.e.mon != nil {
		s.e.mon.reset()
	}
	s.strat, s.cur, s.steps, s.maxSteps = strat, s.m.Initial(), 0, maxSteps
	s.pending, s.pendingPayload, s.finished, s.sent = -1, nil, false, false
	return nil
}

// Role returns the stepped endpoint's role.
func (s *Stepper) Role() types.Role { return s.e.role }

// Steps returns the number of protocol actions performed so far.
func (s *Stepper) Steps() int { return s.steps }

// Sent reports whether the last action Step committed was a send: false
// after a receive and before the first action. The scheduler reads it to
// hand off (sched.Directed): a role that has just received usually acts
// again at once, while one that has just sent would next wait on its peer.
func (s *Stepper) Sent() bool { return s.sent }

// Done reports whether the stepper has finished (completed, faulted,
// exhausted its budget, or been aborted) and released its endpoint.
func (s *Stepper) Done() bool { return s.finished }

// finish releases the endpoint claim exactly once and marks the stepper
// done.
func (s *Stepper) finish() {
	if !s.finished {
		s.finished = true
		if s.claimed {
			s.e.inUse.Store(false)
		}
	}
}

// Abort releases the endpoint without completing the protocol: the
// scheduler calls it on the live siblings of a faulted task so their
// endpoints return to a claimable state.
func (s *Stepper) Abort() { s.finish() }

// Step performs at most one protocol action. It returns:
//
//   - (false, nil): one action was performed; step again.
//   - (false, ErrWouldBlock): no effect — the next action cannot proceed
//     until the peer makes progress; re-step after it does.
//   - (true, nil): the protocol ran to completion (terminal state).
//   - (true, ErrStopped): the step budget was exhausted mid-protocol — the
//     bounded-execution sentinel.
//   - (true, err): the process faulted (protocol, sort or channel error).
//
// Once done, further Steps return (true, ErrStepperDone), so a scheduler
// bug that steps a finished task is loud.
func (s *Stepper) Step() (bool, error) {
	if s.finished {
		return true, ErrStepperDone
	}
	ts := s.m.Transitions(s.cur)
	if len(ts) == 0 || s.steps >= s.maxSteps {
		s.finish()
		if len(ts) > 0 {
			return true, ErrStopped
		}
		// Mirror TrySession's completion check on the monitor.
		if s.e.mon != nil && !s.e.mon.Terminal() {
			return true, fmt.Errorf("%w: role %s stopped in state %d", ErrIncomplete, s.e.role, s.e.mon.State())
		}
		return true, nil
	}
	if ts[0].Act.Dir == fsm.Send {
		t, v, err := s.decide(ts)
		if err == nil {
			if err = s.send(t, v); err == nil {
				s.pending, s.pendingPayload = -1, nil
				s.cur = t.To
				s.steps++
				s.sent = true
			}
		}
		return s.settle(err)
	}
	m, err := s.recv(&ts[0])
	if err == nil {
		err = s.received(ts, m.Label, m.Value)
	}
	return s.settle(err)
}

// decide returns the output transition the strategy picks among ts, and its
// payload. The strategy is consulted once per performed action: until the
// send commits it, every call replays the cached decision.
func (s *Stepper) decide(ts []fsm.Transition) (*fsm.Transition, any, error) {
	if s.pending < 0 {
		i := s.strat.Choose(s.cur, ts)
		if i < 0 || i >= len(ts) {
			return nil, nil, fmt.Errorf("session: strategy chose %d of %d options", i, len(ts))
		}
		s.pending = i
		s.pendingPayload = s.strat.Payload(ts[i].Act)
	}
	return &ts[s.pending], s.pendingPayload, nil
}

// received follows the input transition among ts that matches a message
// delivered from ts[0]'s peer, and hands its payload to the strategy. A label
// the machine does not accept there is a *ProtocolError, as from a monitor.
func (s *Stepper) received(ts []fsm.Transition, label types.Label, value any) error {
	act := fsm.Action{Dir: fsm.Recv, Peer: ts[0].Act.Peer, Label: label}
	i := fsm.Match(ts, &act)
	if i < 0 {
		return &ProtocolError{Role: s.m.Role(), State: s.cur, Action: act}
	}
	s.strat.Received(ts[i].Act, value)
	s.cur = ts[i].To
	s.steps++
	s.sent = false
	return nil
}

// send offers the decided output t (the pending transition), carrying v, to
// its route. On a monitored endpoint v must inhabit t's sort first: the
// machine fixes the action, but only this check holds the strategy's
// payload to it.
func (s *Stepper) send(t *fsm.Transition, v any) error {
	if s.e.mon != nil && !sortAccepts(t.Act.Sort, v) {
		return &SortError{Role: s.e.role, Act: t.Act, Value: v}
	}
	q, err := s.route(s.pending, t)
	if err != nil {
		return err
	}
	ok, err := q.TrySend(channel.Message{Label: t.Act.Label, Value: v})
	if err == nil && !ok {
		err = ErrWouldBlock
	}
	return err
}

// recv takes the next message off the route of the input state whose first
// transition is t.
func (s *Stepper) recv(t *fsm.Transition) (channel.Message, error) {
	q, err := s.route(0, t)
	if err != nil {
		return channel.Message{}, err
	}
	m, ok, err := q.TryRecv()
	if err == nil && !ok {
		err = ErrWouldBlock
	}
	return m, err
}

// route returns the substrate carrying t, the i-th transition out of the
// current state: the route table entry the route plan row names. A -1
// entry is a route the network lacks, which peerRoute reports.
func (s *Stepper) route(i int, t *fsm.Transition) (route, error) {
	if x := s.rows[s.cur][i]; x >= 0 {
		return s.e.net.routes[x], nil
	}
	return s.e.peerRoute(t.Act.Dir, t.Act.Peer)
}

// wait parks on the one route the last Step refused on — a send's is fixed
// by the pending decision, a receive's is the input state's peer — until
// it is ready or closed (nil: the next Step reports a close), or past a
// non-zero deadline: the *TimeoutError a deadline-armed Send or Receive
// returns.
func (s *Stepper) wait(deadline time.Time) error {
	ts := s.m.Transitions(s.cur)
	i, op := 0, "receive"
	if ts[0].Act.Dir == fsm.Send {
		i, op = s.pending, "send"
	}
	q, err := s.route(i, &ts[i])
	if err != nil {
		return nil
	}
	if op == "send" {
		err = q.WaitSend(deadline)
	} else {
		err = q.WaitRecv(deadline)
	}
	if err == channel.ErrDeadline {
		return &TimeoutError{Role: s.e.role, Op: op, Peer: ts[i].Act.Peer}
	}
	return nil
}

// settle maps the outcome of one attempted action onto Step's contract: a
// committed action moves the monitor to the walk's state, a would-block has
// no effect, any other error ends the stepper.
func (s *Stepper) settle(err error) (bool, error) {
	if err == nil {
		if s.e.mon != nil {
			s.e.mon.cur = s.cur
		}
		return false, nil
	}
	if err == ErrWouldBlock {
		return false, err
	}
	s.finish()
	return true, err
}

// ErrStepperDone is returned by Step on a stepper that already finished with
// an error or was aborted: stepping it again is a scheduler bug, not a
// recoverable condition.
var ErrStepperDone = fmt.Errorf("session: stepper already finished")

// Steppers claims one stepper per role, in Roles order: role r's stepper
// walks its verified machine under the strategy strat(r), within budget(r)
// actions. strat is called once per role, in the same order, on the calling
// goroutine. If any claim fails, the steppers already claimed are aborted,
// so every endpoint of the session is claimable again.
func (s *Session) Steppers(strat func(types.Role) Strategy, budget func(types.Role) int) ([]*Stepper, error) {
	steppers := make([]*Stepper, 0, len(s.plan.roles))
	for i, r := range s.plan.roles {
		ep, err := s.Endpoint(r)
		if err == nil {
			var st *Stepper
			if st, err = NewStepper(ep, s.plan.fsms[i], strat(r), budget(r)); err == nil {
				steppers = append(steppers, st)
				continue
			}
		}
		for _, st := range steppers {
			st.Abort()
		}
		return nil, fmt.Errorf("session: stepper for %s: %w", r, err)
	}
	return steppers, nil
}
