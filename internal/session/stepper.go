package session

import (
	"fmt"

	"repro/internal/fsm"
	"repro/internal/types"
)

// walk is a process's position in its verified machine — the one place the
// runtime walks a machine. Stepper runs it over the non-blocking Try* ops and
// Drive over the blocking ones; both ask it what may happen next (next) and
// which output the strategy takes (decide), and commit what the endpoint did
// (sent, or received with the delivered label).
type walk struct {
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
}

func newWalk(m *fsm.FSM, strat Strategy, maxSteps int) walk {
	return walk{m: m, strat: strat, cur: m.Initial(), maxSteps: maxSteps, pending: -1}
}

// next returns the transitions the walk may take from its current state. It
// reports done when the walk is over: at a final state (err nil) or with the
// step budget exhausted mid-protocol (ErrStopped, the bounded-execution
// sentinel Run filters).
func (w *walk) next() (ts []fsm.Transition, done bool, err error) {
	ts = w.m.Transitions(w.cur)
	if len(ts) == 0 {
		return nil, true, nil
	}
	if w.steps >= w.maxSteps {
		return nil, true, ErrStopped
	}
	return ts, false, nil
}

// decide returns the output transition the strategy picks among ts, and its
// payload. The strategy is consulted once per performed action: until sent
// commits it, every call replays the cached decision.
func (w *walk) decide(ts []fsm.Transition) (*fsm.Transition, any, error) {
	if w.pending < 0 {
		i := w.strat.Choose(w.cur, ts)
		if i < 0 || i >= len(ts) {
			return nil, nil, fmt.Errorf("session: strategy chose %d of %d options", i, len(ts))
		}
		w.pending = i
		w.pendingPayload = w.strat.Payload(ts[i].Act)
	}
	return &ts[w.pending], w.pendingPayload, nil
}

// sent commits the decided output t.
func (w *walk) sent(t *fsm.Transition) {
	w.pending = -1
	w.pendingPayload = nil
	w.cur = t.To
	w.steps++
}

// received follows the input transition among ts whose label matches a
// delivered message, and hands its payload to the strategy.
func (w *walk) received(role types.Role, ts []fsm.Transition, label types.Label, value any) error {
	for i := range ts {
		if ts[i].Act.Label == label {
			w.strat.Received(ts[i].Act, value)
			w.cur = ts[i].To
			w.steps++
			return nil
		}
	}
	return fmt.Errorf("session: role %s received unexpected label %s in state %d", role, label, w.cur)
}

// Stepper drives a process for an endpoint directly from its verified
// machine — exactly what Drive does — but in non-blocking units: each Step
// performs at most one protocol action via TrySendMsg/TryRecvMsg and yields
// ErrWouldBlock, with no effect, when the substrate cannot make progress.
// That inversion is what lets thousands of sessions multiplex over a fixed
// worker pool (internal/sched) instead of parking two goroutines each.
//
// Lifecycle: NewStepper claims the endpoint (the TrySession linearity CAS)
// and Step releases it when the protocol completes, faults, or exhausts its
// budget; Abort releases it early. A Stepper is not safe for concurrent use
// — one goroutine steps it at a time, which is the scheduler's invariant
// (each session is sharded whole onto one worker).
//
// Determinism: the strategy's Choose and Payload are consulted exactly once
// per performed action — a would-block retry replays the cached decision —
// so a stepped run makes the same choices, sends the same payloads and
// observes the same per-role trace as Drive over the same strategy. The
// trace oracle in internal/equiv pins this for every registry protocol.
type Stepper struct {
	walk
	e        *Endpoint
	finished bool
}

// NewStepper claims the endpoint and returns a stepper that will drive it
// through at most maxSteps actions of its verified machine, deciding
// internal choices and payloads with strat. It fails with ErrLinearity if
// the endpoint is already owned by a running session or another stepper.
// A monitored endpoint's monitor is reset, as at TrySession entry.
func NewStepper(e *Endpoint, m *fsm.FSM, strat Strategy, maxSteps int) (*Stepper, error) {
	if !e.inUse.CompareAndSwap(false, true) {
		return nil, ErrLinearity
	}
	if e.mon != nil {
		e.mon.reset()
	}
	return &Stepper{walk: newWalk(m, strat, maxSteps), e: e}, nil
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
	s.walk = newWalk(s.m, strat, maxSteps)
	s.finished = false
	return nil
}

// Role returns the stepped endpoint's role.
func (s *Stepper) Role() types.Role { return s.e.role }

// Steps returns the number of protocol actions performed so far.
func (s *Stepper) Steps() int { return s.steps }

// Done reports whether the stepper has finished (completed, faulted,
// exhausted its budget, or been aborted) and released its endpoint.
func (s *Stepper) Done() bool { return s.finished }

// finish releases the endpoint exactly once and marks the stepper done.
func (s *Stepper) finish() {
	if !s.finished {
		s.finished = true
		s.e.inUse.Store(false)
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
//     bounded-execution sentinel, as from Drive.
//   - (true, err): the process faulted (protocol, sort or channel error).
//
// Once done, further Steps return (true, ErrStepperDone), so a scheduler
// bug that steps a finished task is loud.
func (s *Stepper) Step() (bool, error) {
	if s.finished {
		return true, ErrStepperDone
	}
	ts, done, err := s.next()
	if done {
		s.finish()
		// Mirror TrySession's completion check on the monitor.
		if err == nil && s.e.mon != nil && !s.e.mon.Terminal() {
			err = fmt.Errorf("%w: role %s stopped in state %d", ErrIncomplete, s.e.role, s.e.mon.State())
		}
		return true, err
	}
	if ts[0].Act.Dir == fsm.Send {
		t, v, err := s.decide(ts)
		if err == nil {
			if err = s.e.TrySendMsg(t.Act.Peer, t.Act.Label, v); err == nil {
				s.sent(t)
			}
		}
		return s.settle(err)
	}
	label, value, err := s.e.TryRecvMsg(ts[0].Act.Peer)
	if err == nil {
		err = s.received(s.e.role, ts, label, value)
	}
	return s.settle(err)
}

// settle maps the outcome of one attempted action onto Step's contract: a
// would-block has no effect, any other error ends the stepper.
func (s *Stepper) settle(err error) (bool, error) {
	if err == nil || err == ErrWouldBlock {
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
	roles := s.Roles()
	steppers := make([]*Stepper, 0, len(roles))
	for _, r := range roles {
		ep, err := s.Endpoint(r)
		if err == nil {
			var st *Stepper
			if st, err = NewStepper(ep, s.FSM(r), strat(r), budget(r)); err == nil {
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
