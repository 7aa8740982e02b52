package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/session"
	"repro/internal/types"
)

func adderSession(t *testing.T) *session.Session {
	t.Helper()
	g := types.MustParseGlobal("mu t.c->s:{add(i32).c->s:num(i32).s->c:sum(i32).t, bye.s->c:bye.end}")
	sess, err := session.TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	return sess
}

func TestSchedManySessionsAcrossWorkers(t *testing.T) {
	base := adderSession(t)
	for _, workers := range []int{1, 4} {
		s := New(Options{Workers: workers})
		const n = 200
		for i := 0; i < n; i++ {
			inst := base.Fork()
			err := s.GoSession(inst, 1000, func(types.Role) session.Strategy {
				return session.FirstBranch{}
			})
			if err != nil {
				t.Fatalf("workers=%d: GoSession %d: %v", workers, i, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
	}
}

func TestSchedCompletionCallbacksAndWait(t *testing.T) {
	base := adderSession(t)
	s := New(Options{Workers: 2})
	const n = 50
	var done atomic.Int64
	for i := 0; i < n; i++ {
		inst := base.Fork()
		var steppers []Stepper
		for _, r := range inst.Roles() {
			ep, err := inst.Endpoint(r)
			if err != nil {
				t.Fatal(err)
			}
			st, err := session.NewStepper(ep, inst.FSM(r), session.FirstBranch{}, 1000)
			if err != nil {
				t.Fatal(err)
			}
			steppers = append(steppers, st)
		}
		if err := s.Go(time.Time{}, func(err error) {
			if err == nil {
				done.Add(1)
			}
		}, steppers...); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done.Load() != n {
		t.Fatalf("%d of %d sessions completed cleanly", done.Load(), n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// blockedStepper always would-blocks: the shape of a buggy hand stepper
// waiting on a message no peer will send. With wrap set it returns the
// sentinel wrapped, which must park the task just as the bare one does.
type blockedStepper struct{ aborted, wrap bool }

func (b *blockedStepper) Step() (bool, error) {
	if b.wrap {
		return false, fmt.Errorf("hand stepper: %w", session.ErrWouldBlock)
	}
	return false, session.ErrWouldBlock
}
func (b *blockedStepper) Abort() { b.aborted = true }

func TestSchedDeadlockDetection(t *testing.T) {
	s := New(Options{Workers: 1})
	b1, b2 := &blockedStepper{}, &blockedStepper{wrap: true}
	if err := s.Go(time.Time{}, nil, b1, b2); err != nil {
		t.Fatal(err)
	}
	err := s.Close()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("all-blocked session ended with %v, want ErrDeadlock", err)
	}
	if !b1.aborted || !b2.aborted {
		t.Fatalf("deadlocked tasks not aborted: %v %v", b1.aborted, b2.aborted)
	}
}

// faultStepper makes k steps of progress then faults.
type faultStepper struct{ left int }

func (f *faultStepper) Step() (bool, error) {
	if f.left == 0 {
		return true, fmt.Errorf("injected fault")
	}
	f.left--
	return false, nil
}

func TestSchedFaultAbortsSiblings(t *testing.T) {
	s := New(Options{Workers: 1})
	sib := &blockedStepper{}
	if err := s.Go(time.Time{}, nil, &faultStepper{left: 3}, sib); err != nil {
		t.Fatal(err)
	}
	err := s.Close()
	if err == nil || errors.Is(err, ErrDeadlock) {
		t.Fatalf("faulted session ended with %v, want the injected fault", err)
	}
	if !sib.aborted {
		t.Fatalf("sibling of a faulted task was not aborted")
	}
}

// stopStepper stops deliberately after k steps, like a budgeted role of an
// infinite protocol.
type stopStepper struct{ left int }

func (f *stopStepper) Step() (bool, error) {
	if f.left == 0 {
		return true, session.ErrStopped
	}
	f.left--
	return false, nil
}

func TestSchedDeliberateStopQuiescesCleanly(t *testing.T) {
	// One task stops after three actions while its sibling still waits for
	// a message: that quiescence is a clean bounded run, not a deadlock —
	// and the parked sibling must be aborted so its resources release.
	s := New(Options{Workers: 1})
	sib := &blockedStepper{}
	if err := s.Go(time.Time{}, nil, &stopStepper{left: 3}, sib); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("bounded-stop session ended with %v, want nil", err)
	}
	if !sib.aborted {
		t.Fatalf("parked sibling of a stopped task was not aborted")
	}
}

func TestSchedCloseRejectsNewWork(t *testing.T) {
	s := New(Options{Workers: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Go(time.Time{}, nil, &stopStepper{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Go after Close: %v, want ErrClosed", err)
	}
}

func TestSchedQuantumFairness(t *testing.T) {
	// Two long sessions on one worker: with a small quantum, neither may
	// finish wholly before the other starts. Track interleaving by
	// recording which session each progress step belongs to.
	const quantum = 8
	var order []int
	// The single worker may step session 1 before the second Go lands, so
	// session 1 spins through unrecorded steps until it has seen session 2
	// enqueued, then through one more quantum: the visit in which it saw
	// the flag ends inside that quantum, and the worker pulls session 2
	// from its inbox at the next pass, before session 1 records a step.
	var enqueued2 atomic.Bool
	mk := func(id, steps, spin int) Stepper {
		return stepFunc(func() (bool, error) {
			if spin > 0 {
				if enqueued2.Load() {
					spin--
				}
				return false, nil
			}
			if steps == 0 {
				return true, session.ErrStopped
			}
			steps--
			order = append(order, id)
			return false, nil
		})
	}
	s := New(Options{Workers: 1, Quantum: quantum})
	if err := s.Go(time.Time{}, nil, mk(1, 64, quantum)); err != nil {
		t.Fatal(err)
	}
	if err := s.Go(time.Time{}, nil, mk(2, 64, 0)); err != nil {
		t.Fatal(err)
	}
	enqueued2.Store(true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The worker is single-threaded, so order is well-defined. Fairness:
	// session 2 must appear before session 1 has fully finished.
	first2 := -1
	for i, id := range order {
		if id == 2 {
			first2 = i
			break
		}
	}
	if first2 < 0 || first2 > quantum+1 {
		t.Fatalf("quantum rotation did not interleave sessions: first step of session 2 at %d", first2)
	}
}

// stepFunc adapts a closure to Stepper (single-worker tests only; the
// closure is not synchronised).
type stepFunc func() (bool, error)

func (f stepFunc) Step() (bool, error) { return f() }

// TestSchedCloseVersusConcurrentEnqueue pins the invariant the enqueue path
// relies on: a call to any entry point racing Close either fails with
// ErrClosed or has its session finish before Close returns, so no enqueue
// can find a stopped worker. Producers block in admission (Backlog 1) while
// Close runs, and no goroutine outlives the scheduler.
func TestSchedCloseVersusConcurrentEnqueue(t *testing.T) {
	base := adderSession(t)
	baseline := runtime.NumGoroutine()
	s := New(Options{Workers: 2, Backlog: 1})
	var finished atomic.Int64 // onDone calls
	onDone := func(err error) {
		if err != nil {
			t.Errorf("session failed: %v", err)
		}
		finished.Add(1)
	}
	var forksMu sync.Mutex
	var forks []*session.Session // GoSession instances, accepted or not
	const perEntry = 8
	entries := []func() error{
		func() error { return s.Go(time.Time{}, onDone, doneStepper{}) },
		func() error {
			_, err := s.GoExternal(time.Now().Add(time.Minute), onDone, doneStepper{})
			return err
		},
		func() error {
			return s.GoSessionPooled(base, 1000, firstBranchStrat, time.Time{}, onDone)
		},
		func() error {
			inst := base.Fork()
			forksMu.Lock()
			forks = append(forks, inst)
			forksMu.Unlock()
			// GoSession has no onDone: a claimable instance after Close
			// (checked below) is its proof of completion.
			return s.GoSession(inst, 1000, firstBranchStrat)
		},
	}
	var perEntryAccepted [4]atomic.Int64
	var wg sync.WaitGroup
	for e, enqueue := range entries {
		for g := 0; g < perEntry; g++ {
			wg.Add(1)
			go func(e int, enqueue func() error) {
				defer wg.Done()
				for {
					err := enqueue()
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("entry %d: %v", e, err)
						return
					}
					perEntryAccepted[e].Add(1)
				}
			}(e, enqueue)
		}
	}
	waitUntil := time.Now().Add(20 * time.Second)
	for e := range perEntryAccepted {
		for perEntryAccepted[e].Load() == 0 {
			if time.Now().After(waitUntil) {
				t.Fatalf("entry %d never accepted a session", e)
			}
			runtime.Gosched()
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	atClose := finished.Load()
	wg.Wait()
	accepted := perEntryAccepted[0].Load() + perEntryAccepted[1].Load() + perEntryAccepted[2].Load()
	if atClose != accepted || finished.Load() != accepted {
		t.Fatalf("%d onDone sessions accepted; %d finished before Close returned, %d in all",
			accepted, atClose, finished.Load())
	}
	for i, inst := range forks {
		steppers, err := inst.Steppers(firstBranchStrat, func(types.Role) int { return 1 })
		if err != nil {
			t.Fatalf("GoSession instance %d still claimed after Close: %v", i, err)
		}
		for _, st := range steppers {
			st.Abort()
		}
	}
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(waitUntil) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// payloadGate is FirstBranch except that every send blocks until gate is
// closed: a session that holds its worker, and its Backlog slot, on demand.
type payloadGate struct {
	session.FirstBranch
	gate <-chan struct{}
}

func (p payloadGate) Payload(fsm.Action) any {
	<-p.gate
	return nil
}

// TestSchedGoSessionAdmissionAndNoPooling pins GoSession's contract: it
// takes a Backlog slot like every scheduler-built session, and its
// one-shot instances never reach a free list, while their endpoints are
// released at finish.
func TestSchedGoSessionAdmissionAndNoPooling(t *testing.T) {
	base := adderSession(t)
	s := New(Options{Workers: 1, Backlog: 1})
	defer s.Close()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release() // before Close, so a failed assertion cannot hang it
	strat := func(types.Role) session.Strategy { return payloadGate{gate: gate} }
	var forks []*session.Session
	fork := func() *session.Session {
		inst := base.Fork()
		forks = append(forks, inst)
		return inst
	}
	if err := s.GoSession(fork(), 64, strat); err != nil {
		t.Fatal(err)
	}
	second := fork()
	returned := make(chan error, 1)
	go func() { returned <- s.GoSession(second, 64, strat) }()
	select {
	case err := <-returned:
		t.Fatalf("second GoSession returned (%v) while the first held the only Backlog slot", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("second GoSession: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("second GoSession never returned after the first session was released")
	}
	for i := 0; i < 100; i++ {
		if err := s.GoSession(fork(), 64, strat); err != nil {
			t.Fatalf("GoSession %d: %v", i, err)
		}
	}
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for i, w := range s.workers {
		w.mu.Lock()
		n := len(w.free)
		w.mu.Unlock()
		if n != 0 {
			t.Errorf("worker %d free list holds %d keys after GoSession runs, want 0", i, n)
		}
	}
	for i, inst := range forks {
		steppers, err := inst.Steppers(firstBranchStrat, func(types.Role) int { return 1 })
		if err != nil {
			t.Fatalf("instance %d not claimable after its session finished: %v", i, err)
		}
		for _, st := range steppers {
			st.Abort()
		}
	}
}
