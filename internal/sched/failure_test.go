package sched

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/session"
	"repro/internal/types"
)

// This file pins the scheduler's failure semantics: panic isolation (a
// panicking stepper faults only its session — the worker survives, siblings
// on the same worker keep running, Close/Wait return), per-session
// deadlines, and the typed attribution of deadlock/timeout errors.

// panicStepper makes k steps of progress then panics mid-Step: the shape of
// a buggy stepper dereferencing nil, not one politely returning an error.
type panicStepper struct {
	left    int
	aborted bool
}

func (p *panicStepper) Step() (bool, error) {
	if p.left == 0 {
		panic("stepper bug: nil map write")
	}
	p.left--
	return false, nil
}

func (p *panicStepper) Abort() { p.aborted = true }

// countingStepper completes after k steps, counting them; the well-behaved
// sibling session sharing the worker with a panicking one.
type countingStepper struct{ left, stepped int }

func (c *countingStepper) Step() (bool, error) {
	c.stepped++
	c.left--
	return c.left <= 0, nil
}

// TestSchedStepperPanicIsolated is the satellite regression test: a
// panicking Stepper faults only its own session. The worker survives, a
// sibling session sharded onto the same worker still completes, Close
// returns (today, without the recover barrier, this hangs), and the
// session's onDone observes a *PanicError carrying the panic value.
func TestSchedStepperPanicIsolated(t *testing.T) {
	s := New(Options{Workers: 1}) // one worker: both sessions share it
	var panicErr error
	var panicDone atomic.Bool
	sibling := &panicStepper{left: 2}
	if err := s.Go(time.Time{}, func(err error) {
		panicErr = err
		panicDone.Store(true)
	}, &panicStepper{left: 5}, sibling); err != nil {
		t.Fatal(err)
	}
	healthy := &countingStepper{left: 50}
	var healthyErr error
	if err := s.Go(time.Time{}, func(err error) { healthyErr = err }, healthy); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err == nil {
		t.Fatal("Wait returned nil despite a panicking stepper")
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close returned nil despite a panicking stepper")
	}
	if !panicDone.Load() {
		t.Fatal("panicking session's onDone never ran")
	}
	var pe *PanicError
	if !errors.As(panicErr, &pe) {
		t.Fatalf("panicking session reported %v, want a *PanicError", panicErr)
	}
	if pe.Value != "stepper bug: nil map write" {
		t.Errorf("PanicError.Value = %v, want the panic value", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError.Stack is empty")
	}
	if !sibling.aborted {
		t.Error("sibling task of the panicking stepper was not aborted")
	}
	if healthyErr != nil {
		t.Errorf("healthy session on the same worker failed: %v", healthyErr)
	}
	if healthy.stepped == 0 {
		t.Error("healthy session on the same worker never stepped")
	}
}

// roleStepper is a blocked stepper that exposes a Role, so deadlock and
// timeout errors can attribute the stuck parties.
type roleStepper struct {
	role    types.Role
	aborted bool
}

func (r *roleStepper) Step() (bool, error) { return false, session.ErrWouldBlock }
func (r *roleStepper) Abort()              { r.aborted = true }
func (r *roleStepper) Role() types.Role    { return r.role }

// TestSchedDeadlockErrorNamesSessionAndRoles pins the typed upgrade of
// ErrDeadlock: the error is a *DeadlockError naming the session and the
// stuck roles, and still satisfies errors.Is(err, ErrDeadlock).
func TestSchedDeadlockErrorNamesSessionAndRoles(t *testing.T) {
	s := New(Options{Workers: 1})
	if err := s.Go(time.Time{}, nil, &roleStepper{role: "alice"}, &roleStepper{role: "bob"}); err != nil {
		t.Fatal(err)
	}
	err := s.Close()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("errors.Is(err, ErrDeadlock) = false for %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("errors.As(err, *DeadlockError) = false for %v", err)
	}
	if de.Session == 0 {
		t.Error("DeadlockError does not name the session")
	}
	if len(de.Stuck) != 2 {
		t.Errorf("DeadlockError.Stuck = %v, want [alice bob]", de.Stuck)
	}
}

// TestSchedSessionDeadlineTimesOutParkedSession pins per-session deadlines:
// a session whose tasks never unblock fails with a *TimeoutError (wrapping
// session.ErrTimeout, naming session and stuck roles) once its deadline
// passes — instead of the instant DeadlockError fail-fast, and instead of
// staying parked forever.
func TestSchedSessionDeadlineTimesOutParkedSession(t *testing.T) {
	s := New(Options{Workers: 1})
	stuck := &roleStepper{role: "carol"}
	start := time.Now()
	if err := s.Go(start.Add(20*time.Millisecond), nil, stuck); err != nil {
		t.Fatal(err)
	}
	err := s.Close()
	if !errors.Is(err, session.ErrTimeout) {
		t.Fatalf("errors.Is(err, session.ErrTimeout) = false for %v", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("errors.As(err, *TimeoutError) = false for %v", err)
	}
	if len(te.Stuck) != 1 || te.Stuck[0] != "carol" {
		t.Errorf("TimeoutError.Stuck = %v, want [carol]", te.Stuck)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("session timed out before its deadline")
	}
	if !stuck.aborted {
		t.Error("timed-out task was not aborted")
	}
}

// slowStepper would-blocks until a wall-clock instant, then completes: a
// stall that clears with no wake event behind it. Under a deadline the
// scheduler must not fail fast on the sterile passes; it parks the session
// and revisits it when its deadline timer fires.
type slowStepper struct{ ready time.Time }

func (s *slowStepper) Step() (bool, error) {
	if time.Now().Before(s.ready) {
		return false, session.ErrWouldBlock
	}
	return true, nil
}

// TestSchedDeadlineTimerRevisitsParkedSession pins what a deadline does to
// a confirmed sterile pass: the session parks instead of failing with a
// *DeadlockError, and the visit its deadline timer triggers steps it once
// more before the expiry is judged. The stall here clears after 5ms but
// fires no wake, so the session completes cleanly at that visit, at its
// deadline.
func TestSchedDeadlineTimerRevisitsParkedSession(t *testing.T) {
	s := New(Options{Workers: 1})
	slow := &slowStepper{ready: time.Now().Add(5 * time.Millisecond)}
	if err := s.Go(time.Now().Add(time.Second), nil, slow); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("transiently stalled session under a deadline failed: %v", err)
	}
}

// TestSchedDeadlineRetriesFaultyRefusal pins the confirming pass: on
// routes that refuse every message's first probe, a pass in which every
// task refuses is routine, and the retry passes. A deadline-armed session
// started with Go has no Waker — only its deadline timer could wake it once
// parked — so finishing clean before that deadline shows the scheduler
// retried the refusals instead of parking on them.
func TestSchedDeadlineRetriesFaultyRefusal(t *testing.T) {
	inst := adderSession(t).Rewire(func(roles ...types.Role) *session.Network {
		return session.NewCustomNetwork(func() channel.Substrate {
			return channel.NewFaulty(channel.NewRingQueue(), channel.FaultPlan{Seed: 1, WouldBlockP: 1000})
		}, roles...)
	})
	steppers, err := inst.Steppers(func(types.Role) session.Strategy { return session.FirstBranch{} },
		func(types.Role) int { return 200 })
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Stepper, len(steppers))
	for i, st := range steppers {
		tasks[i] = st
	}
	s := New(Options{Workers: 1})
	defer s.Close()
	deadline := time.Now().Add(30 * time.Second)
	done := make(chan error, 1)
	if err := s.Go(deadline, func(err error) { done <- err }, tasks...); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("session under spurious refusals: %v", err)
	}
	if !time.Now().Before(deadline) {
		t.Fatal("session finished only when its deadline timer woke it")
	}
}

// TestSchedGoSessionWithDeadline drives a real verified session under a
// generous deadline (the deadline argument of GoSessionPooled): it must
// complete cleanly (armed-but-unfired deadlines change nothing observable).
func TestSchedGoSessionWithDeadline(t *testing.T) {
	base := adderSession(t)
	s := New(Options{Workers: 2})
	for i := 0; i < 20; i++ {
		err := s.GoSessionPooled(base, 1000, func(types.Role) session.Strategy {
			return session.FirstBranch{}
		}, time.Now().Add(5*time.Second), nil)
		if err != nil {
			t.Fatalf("GoSessionPooled %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
