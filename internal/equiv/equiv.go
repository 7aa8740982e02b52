// Package equiv is the trace-equivalence machinery behind the repo's
// strongest cross-cutting property: however a verified session is executed
// — blocking goroutines, non-blocking steppers on one goroutine or under
// the scheduler, or one OS process per role over sockets (cmd/sessnet) —
// every role observes the same ordered action trace.
//
// It is also the one place that executes a session in a given mode: Run
// takes an instance, a Mode (Blocking, Stepped, Scheduled), a per-role
// Budget, a strategy factory, an optional deadline and a scheduler, and
// internal/chaos, internal/protofuzz and the reference run below all
// execute sessions through it.
//
// The anchor is the sequential stepped reference run (ReferenceRun): a
// single goroutine round-robins every role until the session quiesces,
// which yields a consistent cut — per-role action budgets under which every
// receive in the cut has its matching send in the cut. Replaying that cut
// in any mode (Replay) must reproduce the reference traces exactly; the
// package's tests pin this for every mode in Modes, and RunDistributed pins
// it across process boundaries over internal/netchan.
package equiv

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/session"
	"repro/internal/types"
)

// TraceStrategy makes deterministic choices (cycling the options of real
// choices only) and records every performed action in order. Deterministic
// choice is what makes traces comparable across execution modes: every
// driver of the same role takes the same branch at the same point.
type TraceStrategy struct {
	n     int
	trace []string
}

// Choose cycles through the options of real choices; singleton option sets
// (no choice) do not advance the cycle.
func (s *TraceStrategy) Choose(_ fsm.State, options []fsm.Transition) int {
	if len(options) == 1 {
		return 0
	}
	s.n++
	return (s.n - 1) % len(options)
}

// Payload is consulted exactly once per performed send (the stepper caches
// the decision across would-block retries), so it doubles as the send
// recorder.
func (s *TraceStrategy) Payload(act fsm.Action) any {
	s.trace = append(s.trace, act.String())
	return nil
}

// Received records a completed receive.
func (s *TraceStrategy) Received(act fsm.Action, _ any) {
	s.trace = append(s.trace, act.String())
}

// Trace returns the actions recorded so far, in order.
func (s *TraceStrategy) Trace() []string { return s.trace }

// Lookup finds a registry protocol by its Table-1 name.
func Lookup(name string) (protocols.Entry, error) {
	for _, e := range protocols.Registry() {
		if e.Name == name {
			return e, nil
		}
	}
	return protocols.Entry{}, fmt.Errorf("equiv: unknown registry protocol %q", name)
}

// BuildSession builds a monitored session for a registry entry from its
// plain (unoptimised) endpoints: top-down when a global type exists,
// bottom-up k-MC otherwise (Hospital).
func BuildSession(e protocols.Entry) (*session.Session, error) {
	if e.Global != nil {
		sess, err := session.TopDown(e.Global, nil, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("equiv: %s: TopDown: %w", e.Name, err)
		}
		return sess, nil
	}
	sess, err := session.BottomUp(e.KmcBound, protocols.Machines(protocols.FSMs(e.Locals))...)
	if err != nil {
		return nil, fmt.Errorf("equiv: %s: BottomUp: %w", e.Name, err)
	}
	return sess, nil
}

// TraceRecorder is a deterministic strategy that records the actions it
// performs. ReferenceRunWith accepts any recorder, so harnesses
// (internal/protofuzz) can substitute their own choice rule — e.g. one
// invariant under machine rewrites — while reusing the consistent-cut
// derivation.
type TraceRecorder interface {
	session.Strategy
	Trace() []string
}

// ReferenceRun steps every role sequentially (round-robin, one goroutine)
// until the session quiesces, with each role capped at maxCap actions. It
// returns the per-role action counts — the consistent cut — and the
// per-role reference traces.
func ReferenceRun(sess *session.Session, maxCap int) (map[types.Role]int, map[types.Role][]string, error) {
	return ReferenceRunWith(sess, maxCap, func(types.Role) TraceRecorder { return &TraceStrategy{} })
}

// ReferenceRunWith is ReferenceRun with a caller-supplied strategy factory;
// mk is called once per role. The factory's strategies must be
// deterministic, or the returned budgets are not a replayable cut. It is
// Stepped mode without a deadline, read out: each role's budget is the
// number of actions its stepper performed.
func ReferenceRunWith(sess *session.Session, maxCap int, mk func(types.Role) TraceRecorder) (map[types.Role]int, map[types.Role][]string, error) {
	recs := map[types.Role]TraceRecorder{}
	steppers, err := sess.Steppers(func(r types.Role) session.Strategy {
		recs[r] = mk(r)
		return recs[r]
	}, Bound(maxCap).of)
	if err != nil {
		return nil, nil, fmt.Errorf("equiv: %w", err)
	}
	if err := step(steppers, time.Time{}, nil); err != nil {
		return nil, nil, fmt.Errorf("equiv: reference run faulted: %w", err)
	}
	budgets := make(map[types.Role]int, len(steppers))
	traces := make(map[types.Role][]string, len(steppers))
	for _, st := range steppers {
		budgets[st.Role()] = st.Steps()
		traces[st.Role()] = recs[st.Role()].Trace()
	}
	return budgets, traces, nil
}
