package sched_test

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/equiv"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
)

// This file is the stepping/blocking equivalence property at scheduler
// scale: for EVERY registry protocol, all in flight at once on one pool, a
// session driven by non-blocking steppers observes exactly the same per-role
// trace (the ordered sequence of performed actions) as the classic blocking
// monitored run. The consistent-cut derivation, the deterministic trace
// strategy and the one-mode-at-a-time oracle live in internal/equiv — the
// same machinery cmd/sessnet uses to pin the multi-process socket run
// against the same reference.

// entrySession builds a monitored session for a registry entry, failing the
// test on error.
func entrySession(t *testing.T, e protocols.Entry) *session.Session {
	t.Helper()
	sess, err := equiv.BuildSession(e)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// referenceRun wraps equiv.ReferenceRun with test plumbing.
func referenceRun(t *testing.T, e protocols.Entry, sess *session.Session, maxCap int) (map[types.Role]int, map[types.Role][]string) {
	t.Helper()
	budgets, traces, err := equiv.ReferenceRun(sess, maxCap)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return budgets, traces
}

// claimTraced claims one stepper per role of inst with Session.Steppers,
// each within its cut budget and recording into a fresh TraceStrategy, and
// returns them as scheduler tasks with the recorders.
func claimTraced(t *testing.T, e protocols.Entry, inst *session.Session, budgets map[types.Role]int) ([]sched.Stepper, map[types.Role]*equiv.TraceStrategy) {
	t.Helper()
	strats := map[types.Role]*equiv.TraceStrategy{}
	claimed, err := inst.Steppers(func(r types.Role) session.Strategy {
		strats[r] = &equiv.TraceStrategy{}
		return strats[r]
	}, func(r types.Role) int { return budgets[r] })
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	steppers := make([]sched.Stepper, len(claimed))
	for i, st := range claimed {
		steppers[i] = st
	}
	return steppers, strats
}

// TestSteppedTraceEqualsBlockingTrace is the acceptance property: for every
// registry protocol, the scheduler-driven stepped run and the blocking
// monitored run observe identical per-role traces (and the sequential
// stepped reference agrees with both).
func TestSteppedTraceEqualsBlockingTrace(t *testing.T) {
	const maxCap = 40
	s := sched.New(sched.Options{Workers: 4, Quantum: 16})
	type pending struct {
		entry  protocols.Entry
		strats map[types.Role]*equiv.TraceStrategy
		ref    map[types.Role][]string
		blk    map[types.Role][]string
	}
	var runs []*pending
	for _, e := range protocols.Registry() {
		// 1. Sequential stepped reference: derives the consistent cut.
		refSess := entrySession(t, e)
		budgets, refTraces := referenceRun(t, e, refSess, maxCap)

		// 2. Blocking monitored run over the same budgets.
		blkTraces, err := equiv.Replay(refSess.Fork(), equiv.Blocking, budgets,
			func(types.Role) equiv.TraceRecorder { return &equiv.TraceStrategy{} }, nil)
		if err != nil {
			t.Fatalf("%s: blocking run: %v", e.Name, err)
		}

		// 3. Scheduler-driven stepped run, all protocols in flight at once
		// over four workers.
		steppers, strats := claimTraced(t, e, refSess.Fork(), budgets)
		if err := s.Go(time.Time{}, nil, steppers...); err != nil {
			t.Fatalf("%s: Go: %v", e.Name, err)
		}
		runs = append(runs, &pending{entry: e, strats: strats, ref: refTraces, blk: blkTraces})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("scheduler: %v", err)
	}

	for _, run := range runs {
		for r, ref := range run.ref {
			blk := run.blk[r]
			sched := run.strats[r].Trace()
			if !reflect.DeepEqual(ref, blk) {
				t.Errorf("%s/%s: blocking trace diverges from the stepped reference:\n ref: %v\n blk: %v",
					run.entry.Name, r, ref, blk)
			}
			if !reflect.DeepEqual(ref, sched) {
				t.Errorf("%s/%s: scheduled stepped trace diverges:\n ref:   %v\n sched: %v",
					run.entry.Name, r, ref, sched)
			}
			if len(ref) == 0 {
				t.Errorf("%s/%s: empty reference trace (the property would hold vacuously)", run.entry.Name, r)
			}
		}
	}
}

// TestStealAblationTraceEquivalence is the migration-safety property: work
// stealing moves whole quiescent sessions between workers, so the observed
// per-role traces must be bit-identical with stealing on and off. The
// stealing run uses MaxActive 1 and a tiny quantum so overflow lands in
// inboxes and idle workers actually raid them — migration under test, not
// by accident.
func TestStealAblationTraceEquivalence(t *testing.T) {
	const maxCap = 40
	type cut struct {
		entry   protocols.Entry
		base    *session.Session
		budgets map[types.Role]int
		ref     map[types.Role][]string
	}
	var cuts []*cut
	for _, e := range protocols.Registry() {
		sess := entrySession(t, e)
		budgets, ref := referenceRun(t, e, sess, maxCap)
		cuts = append(cuts, &cut{entry: e, base: sess, budgets: budgets, ref: ref})
	}

	run := func(noSteal bool) map[string]map[types.Role][]string {
		s := sched.New(sched.Options{Workers: 4, Quantum: 1, MaxActive: 1, NoSteal: noSteal})
		perEntry := map[string]map[types.Role]*equiv.TraceStrategy{}
		for _, c := range cuts {
			steppers, strats := claimTraced(t, c.entry, c.base.Fork(), c.budgets)
			if err := s.Go(time.Time{}, nil, steppers...); err != nil {
				t.Fatalf("%s: Go(noSteal=%v): %v", c.entry.Name, noSteal, err)
			}
			perEntry[c.entry.Name] = strats
		}
		if err := s.Close(); err != nil {
			t.Fatalf("scheduler(noSteal=%v): %v", noSteal, err)
		}
		out := map[string]map[types.Role][]string{}
		for name, strats := range perEntry {
			traces := map[types.Role][]string{}
			for r, strat := range strats {
				traces[r] = strat.Trace()
			}
			out[name] = traces
		}
		return out
	}

	withSteal := run(false)
	without := run(true)
	for _, c := range cuts {
		for r, ref := range c.ref {
			on := withSteal[c.entry.Name][r]
			off := without[c.entry.Name][r]
			if !reflect.DeepEqual(ref, on) {
				t.Errorf("%s/%s: steal-on trace diverges from reference:\n ref: %v\n on:  %v",
					c.entry.Name, r, ref, on)
			}
			if !reflect.DeepEqual(ref, off) {
				t.Errorf("%s/%s: steal-off trace diverges from reference:\n ref: %v\n off: %v",
					c.entry.Name, r, ref, off)
			}
		}
	}
}

// pooledTrace is a trace recorder the pooled path can recycle: on a pool
// hit the scheduler rewinds it (ResetStrategy) instead of asking the
// factory, and it then records into a fresh trace registered with the run
// being submitted. Both the factory and ResetStrategy run on the
// submitting goroutine, inside GoSessionPooled.
type pooledTrace struct {
	role    types.Role
	pending *map[types.Role]*equiv.TraceStrategy // the run being submitted
	resets  *int
	*equiv.TraceStrategy
}

func (p *pooledTrace) ResetStrategy() {
	*p.resets++
	p.TraceStrategy = &equiv.TraceStrategy{}
	(*p.pending)[p.role] = p.TraceStrategy
}

// spinStepper performs an action on every Step until released, so its job
// holds a worker's one active slot (MaxActive 1) and every session placed
// on that worker must be stolen to run.
type spinStepper struct{ release *atomic.Bool }

func (s spinStepper) Step() (bool, error) { return s.release.Load(), nil }

// TestPooledTraceEquivalence is the trace property on the scheduler's
// pooled instances, which run on single-owner routes (Session.ForkLocal):
// every registry protocol runs several times per base through
// GoSessionPooled, with stealing on, one active session per worker and a
// quantum of one action, so sessions migrate mid-protocol and later rounds
// run on recycled (Reset) instances. A spinner pins one worker, so the
// sessions placed there are always stolen. Each run's per-role traces must
// equal the sequential reference run's under the same uniform action cap:
// the roles are deterministic and talk over FIFO routes, so the traces at
// quiescence do not depend on the interleaving. The second pass arms a
// far-off deadline on every session, which takes the deadline-timer path
// through admission, finish and recycling. Under -race (make race) this is
// also the check that the single-owner routes are only ever handed between
// goroutines through the scheduler's locks.
func TestPooledTraceEquivalence(t *testing.T) {
	const maxCap, rounds = 40, 6
	type cut struct {
		entry protocols.Entry
		base  *session.Session
		ref   map[types.Role][]string
	}
	var cuts []*cut
	for _, e := range protocols.Registry() {
		base := entrySession(t, e)
		_, ref := referenceRun(t, e, base, maxCap)
		cuts = append(cuts, &cut{entry: e, base: base, ref: ref})
	}
	for _, armed := range []bool{false, true} {
		name := "nodeadline"
		if armed {
			name = "deadline"
		}
		t.Run(name, func(t *testing.T) {
			s := sched.New(sched.Options{Workers: 4, Quantum: 1, MaxActive: 1})
			release := &atomic.Bool{}
			if err := s.Go(time.Time{}, nil, spinStepper{release: release}); err != nil {
				t.Fatalf("Go spinner: %v", err)
			}
			var pending map[types.Role]*equiv.TraceStrategy
			resets := 0
			strat := func(r types.Role) session.Strategy {
				p := &pooledTrace{role: r, pending: &pending, resets: &resets, TraceStrategy: &equiv.TraceStrategy{}}
				pending[r] = p.TraceStrategy
				return p
			}
			var deadline time.Time
			if armed {
				deadline = time.Now().Add(time.Hour)
			}
			for round := 0; round < rounds; round++ {
				done := make(chan error, len(cuts))
				onDone := func(err error) { done <- err }
				runs := make([]map[types.Role]*equiv.TraceStrategy, len(cuts))
				for i, c := range cuts {
					pending = map[types.Role]*equiv.TraceStrategy{}
					runs[i] = pending
					if err := s.GoSessionPooled(c.base, maxCap, strat, deadline, onDone); err != nil {
						t.Fatalf("%s round %d: GoSessionPooled: %v", c.entry.Name, round, err)
					}
				}
				for range cuts {
					if err := <-done; err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				for i, c := range cuts {
					for r, ref := range c.ref {
						if got := runs[i][r].Trace(); !reflect.DeepEqual(ref, got) {
							t.Errorf("%s/%s round %d: pooled trace diverges from reference:\n ref:    %v\n pooled: %v",
								c.entry.Name, r, round, ref, got)
						}
					}
				}
			}
			release.Store(true)
			if err := s.Close(); err != nil {
				t.Fatalf("scheduler: %v", err)
			}
			if resets == 0 {
				t.Error("no strategy was rewound: no pooled instance was recycled")
			}
			if s.Steals() == 0 {
				t.Error("no session was stolen")
			}
		})
	}
}

// TestSteppedRegistryUnderLoad re-runs every registry protocol as many
// concurrent forks over the scheduler — the "heavy traffic" shape — and
// requires every session to end cleanly.
func TestSteppedRegistryUnderLoad(t *testing.T) {
	const copies = 16
	s := sched.New(sched.Options{Workers: 4})
	for _, e := range protocols.Registry() {
		base := entrySession(t, e)
		for i := 0; i < copies; i++ {
			inst := base.Fork()
			err := s.GoSession(inst, 64, func(types.Role) session.Strategy {
				return &equiv.TraceStrategy{}
			})
			if err != nil {
				t.Fatalf("%s copy %d: %v", e.Name, i, err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("registry under load: %v", err)
	}
}
