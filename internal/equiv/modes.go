package equiv

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// Mode selects how Run executes a session instance.
type Mode int

const (
	// Blocking runs one goroutine per role over the blocking endpoint ops
	// (session.Drive under Session.Run).
	Blocking Mode = iota
	// Stepped steps every role round-robin on the calling goroutine over
	// the non-blocking Try* ops (session.Stepper).
	Stepped
	// Scheduled multiplexes the roles' steppers over an internal/sched
	// worker pool.
	Scheduled
)

// Modes lists every execution mode.
//
//repro:keep the one list of modes the equiv and chaos tests iterate, so a new mode is one entry here
var Modes = []Mode{Blocking, Stepped, Scheduled}

func (m Mode) String() string {
	switch m {
	case Blocking:
		return "blocking"
	case Stepped:
		return "stepped"
	case Scheduled:
		return "scheduled"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Budget caps the actions each role performs in a run. It comes in two
// kinds: a Cut replays a reference run exactly, a Bound caps a bounded
// execution of an infinite protocol.
type Budget struct {
	cut   map[types.Role]int
	bound int
}

// Cut is the budget of a replay: role r performs exactly cut[r] actions,
// the counts a reference run derived (ReferenceRun). Every receive in a
// consistent cut has its send in the cut, so no role waits on a stopped
// sibling.
func Cut(cut map[types.Role]int) Budget { return Budget{cut: cut} }

// Bound caps every role at n actions. A role that reaches the bound may
// leave siblings waiting for messages it will never send: in Blocking mode
// the first such stop aborts the session with ErrBudgetCut, and the stepped
// loop and the scheduler end the run at the quiescence that follows.
func Bound(n int) Budget { return Budget{bound: n} }

func (b Budget) of(r types.Role) int {
	if b.cut != nil {
		return b.cut[r]
	}
	return b.bound
}

// ErrBudgetCut is the cause a Blocking run under a Bound aborts its session
// with when one role deliberately stops at the bound: the teardown releases
// siblings blocked on messages the stopped role will never send. It is the
// expected end of a bounded run, not a fault (internal/chaos classifies it
// Clean).
var ErrBudgetCut = errors.New("equiv: bounded run reached its action budget")

// The budget cut must keep its identity across the wire: over netchan a
// blocking-mode sibling sees the abort as a goodbye frame, and callers test
// for it with errors.Is — so the sentinel travels by name (wire.DecodeCause
// rehydrates it under the *wire.RemoteError).
func init() {
	if err := wire.RegisterCause("chaos/budget-cut", ErrBudgetCut); err != nil {
		panic(err)
	}
}

// Run executes inst in mode: role r walks its verified machine under
// strat(r) within the budget's actions for r. strat is called once per
// role, in Roles order, on the calling goroutine. A non-zero deadline bounds
// the run: blocking actions fail with a *session.TimeoutError, and the
// stepped loop and the scheduler with errors reaching session.ErrTimeout;
// until then they wait on the routes' readiness hooks (inst.SetNotify),
// which makes a Scheduled run a sched.GoExternal session. Scheduled mode
// enqueues the session on s; the other modes ignore it. Deliberate stops at
// the budget are not failures.
func Run(inst *session.Session, mode Mode, b Budget, strat func(types.Role) session.Strategy, deadline time.Time, s *sched.Scheduler) error {
	switch mode {
	case Blocking:
		return runBlocking(inst, b, strat, deadline)
	case Stepped, Scheduled:
	default:
		return fmt.Errorf("equiv: unknown mode %d", int(mode))
	}
	steppers, err := inst.Steppers(strat, b.of)
	if err != nil {
		return err
	}
	if mode == Stepped {
		wake := make(chan struct{}, 1)
		inst.SetNotify(func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		})
		return step(steppers, deadline, wake)
	}
	tasks := make([]sched.Stepper, len(steppers))
	for i, st := range steppers {
		tasks[i] = st
	}
	done := make(chan error, 1)
	onDone := func(err error) { done <- err }
	var k *sched.Waker
	if deadline.IsZero() {
		err = s.Go(deadline, onDone, tasks...)
	} else if k, err = s.GoExternal(deadline, onDone, tasks...); err == nil {
		inst.SetNotify(k.Wake)
		k.Wake() // a delivery that landed before the hook woke nobody
	}
	if err != nil {
		abort(steppers)
		return err
	}
	return <-done
}

// runBlocking is Blocking mode: one goroutine per role drives its endpoint
// with session.Drive, the deadline armed on every endpoint.
func runBlocking(inst *session.Session, b Budget, strat func(types.Role) session.Strategy, deadline time.Time) error {
	procs := map[types.Role]func(*session.Endpoint) error{}
	for _, r := range inst.Roles() {
		m, sg, n := inst.FSM(r), strat(r), b.of(r)
		procs[r] = func(e *session.Endpoint) error {
			e.SetDeadline(deadline)
			err := session.Drive(e, m, sg, n)
			if b.cut == nil && errors.Is(err, session.ErrStopped) {
				inst.Abort(ErrBudgetCut)
			}
			return err
		}
	}
	return inst.Run(procs)
}

// step is Stepped mode: it round-robins the steppers on the calling
// goroutine until every one is done. A sterile pass — every live stepper
// would-blocks — is confirmed by one more: a channel.Faulty route charges
// its spurious refusal once per message and passes the retry, so after two
// sterile passes only a close, a delivery by a transport pump or the
// deadline can unblock the session. Then, with no deadline or after a
// deliberate stop, the quiescence is the consistent cut: the run ends and
// the parked leftovers are aborted. Otherwise the loop waits for wake (the
// routes' readiness hook) or the deadline, and past the deadline fails
// typed, naming the parked roles. A fault aborts every sibling.
func step(steppers []*session.Stepper, deadline time.Time, wake <-chan struct{}) error {
	stopped, sterile := false, 0
	for {
		progressed, parked := false, 0
		for _, st := range steppers {
			if st.Done() {
				continue
			}
			_, err := st.Step()
			switch {
			case errors.Is(err, session.ErrWouldBlock):
				parked++
			case errors.Is(err, session.ErrStopped):
				stopped, progressed = true, true
			case err != nil:
				abort(steppers)
				return fmt.Errorf("role %s: %w", st.Role(), err)
			default:
				progressed = true
			}
		}
		switch {
		case progressed:
			sterile = 0
			continue
		case parked == 0:
			return nil
		}
		if sterile++; sterile < 2 {
			continue
		}
		switch {
		case deadline.IsZero() || stopped:
			abort(steppers)
			return nil
		case !time.Now().Before(deadline):
			var stuck []types.Role
			for _, st := range steppers {
				if !st.Done() {
					stuck = append(stuck, st.Role())
				}
			}
			abort(steppers)
			return fmt.Errorf("stepped run: roles %v still parked: %w", stuck, session.ErrTimeout)
		}
		select {
		case <-wake:
		case <-time.After(time.Until(deadline)):
		}
		sterile = 0
	}
}

// abort releases the endpoint of every stepper not yet done.
func abort(steppers []*session.Stepper) {
	for _, st := range steppers {
		st.Abort()
	}
}

// Replay re-executes inst in mode under the consistent cut a reference run
// derived, driving role r with the recorder mk(r), and returns the per-role
// traces the recorders observed. The trace-equivalence property is that
// these equal the reference traces in every mode.
func Replay(inst *session.Session, mode Mode, cut map[types.Role]int, mk func(types.Role) TraceRecorder, s *sched.Scheduler) (map[types.Role][]string, error) {
	recs := map[types.Role]TraceRecorder{}
	err := Run(inst, mode, Cut(cut), func(r types.Role) session.Strategy {
		recs[r] = mk(r)
		return recs[r]
	}, time.Time{}, s)
	traces := make(map[types.Role][]string, len(recs))
	for r, rec := range recs {
		traces[r] = rec.Trace()
	}
	return traces, err
}
