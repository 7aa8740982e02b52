package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/session"
	"repro/internal/types"
)

// This file pins hand-off stepping (a Directed task is stepped again after
// a receive and yields after a send) and the one recover barrier per visit.

func streamingSession(t *testing.T) *session.Session {
	t.Helper()
	g := types.MustParseGlobal("mu x.t->s:ready.s->t:{value(i32).x, stop.end}")
	sess, err := session.TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatalf("TopDown: %v", err)
	}
	return sess
}

// streamValues drives the Streaming source: it answers n readys with
// values, then stops.
type streamValues struct{ n, sent int }

func (v *streamValues) Choose(_ fsm.State, options []fsm.Transition) int {
	want := types.Label("stop")
	if v.sent < v.n {
		want = "value"
	}
	for i, t := range options {
		if t.Act.Label == want {
			if want == "value" {
				v.sent++
			}
			return i
		}
	}
	return 0
}
func (v *streamValues) Payload(act fsm.Action) any {
	if act.Label == "value" {
		return int32(v.sent)
	}
	return nil
}
func (v *streamValues) Received(fsm.Action, any) {}

// stepRecord is one Step as the scheduler made it.
type stepRecord struct {
	task     int
	progress bool // committed an action (not done, no error)
	done     bool
}

// stepLog is one session's Steps, in order.
type stepLog struct{ steps []stepRecord }

func (l *stepLog) blocks() int {
	n := 0
	for _, r := range l.steps {
		if !r.progress && !r.done {
			n++
		}
	}
	return n
}

// loggedStepper wraps a session.Stepper and logs every Step. It does not
// forward the direction report, so the scheduler steps it once per pass.
type loggedStepper struct {
	st    *session.Stepper
	task  int
	log   *stepLog
	panic func(*session.Stepper) bool // panic instead of stepping when it reports true
}

func (l *loggedStepper) Step() (bool, error) {
	if l.panic != nil && l.panic(l.st) {
		panic(fmt.Sprintf("task %d: stepper bug", l.task))
	}
	done, err := l.st.Step()
	l.log.steps = append(l.log.steps, stepRecord{task: l.task, progress: !done && err == nil, done: done})
	return done, err
}
func (l *loggedStepper) Abort()           { l.st.Abort() }
func (l *loggedStepper) Role() types.Role { return l.st.Role() }

// directedStepper is loggedStepper forwarding the direction report.
type directedStepper struct{ *loggedStepper }

func (d directedStepper) Sent() bool { return d.st.Sent() }

// pooledStreaming is one Streaming instance recycled across runs, as the
// scheduler's pool recycles one: Session.Reset, then Stepper.Reset.
type pooledStreaming struct {
	inst     *session.Session
	src      *streamValues
	steppers []*session.Stepper
	runs     int
}

const streamBudget = 4*16 + 8

func newPooledStreaming(t *testing.T) *pooledStreaming {
	p := &pooledStreaming{inst: streamingSession(t).Fork(), src: &streamValues{}}
	var err error
	p.steppers, err = p.inst.Steppers(p.strategy, func(types.Role) int { return streamBudget })
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *pooledStreaming) strategy(r types.Role) session.Strategy {
	if r == "s" {
		return p.src
	}
	return session.FirstBranch{}
}

// tasks re-arms the instance for a run of n values and wraps its steppers.
func (p *pooledStreaming) tasks(t *testing.T, n int, directed bool, log *stepLog) []Stepper {
	t.Helper()
	if p.runs > 0 {
		if !p.inst.Reset() {
			t.Fatal("Session.Reset declined")
		}
		for _, st := range p.steppers {
			if err := st.Reset(p.strategy(st.Role()), streamBudget); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.runs++
	p.src.n, p.src.sent = n, 0
	tasks := make([]Stepper, len(p.steppers))
	for i, st := range p.steppers {
		l := &loggedStepper{st: st, task: i, log: log}
		tasks[i] = l
		if directed {
			tasks[i] = directedStepper{l}
		}
	}
	return tasks
}

// runOne runs one session on s and returns its outcome.
func runOne(t *testing.T, s *Scheduler, tasks []Stepper) error {
	t.Helper()
	done := make(chan error, 1)
	if err := s.Go(time.Time{}, func(err error) { done <- err }, tasks...); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("session did not finish")
		return nil
	}
}

// With the hand-off a Streaming session's would-blocks do not grow with
// the values it streams: the source takes each ready and answers at once,
// the sink takes each value and asks again at once, and neither is stepped
// while it waits. The same sessions through a wrapper that hides the
// direction report keep one step per pass, and their would-blocks grow.
func TestHandOffWouldBlocksFlat(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	p := newPooledStreaming(t)
	blocks := map[bool]map[int]int{true: {}, false: {}}
	for _, directed := range []bool{true, false} {
		for _, n := range []int{1, 4, 16} {
			for rep := 0; rep < 4; rep++ {
				var log stepLog
				if err := runOne(t, s, p.tasks(t, n, directed, &log)); err != nil {
					t.Fatalf("directed=%v n=%d: %v", directed, n, err)
				}
				if directed && log.blocks() > 2 {
					t.Errorf("n=%d: %d would-blocks in %d Steps, want at most 2", n, log.blocks(), len(log.steps))
				}
				if !directed {
					checkRoundRobin(t, n, &log)
				}
				blocks[directed][n] = max(blocks[directed][n], log.blocks())
				if rep == 0 {
					t.Logf("directed=%v n=%d: %d Steps, %d would-blocks", directed, n, len(log.steps), log.blocks())
				}
			}
		}
	}
	if blocks[false][16] <= blocks[false][1] {
		t.Errorf("round-robin would-blocks at 16 values (%d) did not exceed those at 1 value (%d)", blocks[false][16], blocks[false][1])
	}
}

// checkRoundRobin asserts one step per turn: after a committed action, the
// next Step goes to the other task while it is still live.
func checkRoundRobin(t *testing.T, n int, log *stepLog) {
	t.Helper()
	var done [2]bool
	for i, r := range log.steps {
		if r.done {
			done[r.task] = true
		}
		if i+1 < len(log.steps) && r.progress && !done[1-r.task] && log.steps[i+1].task == r.task {
			t.Fatalf("n=%d: task %d stepped twice in a row at Step %d without a direction report", n, r.task, i)
		}
	}
}

// A panic on the Step that follows a receive in the same visit is caught
// by the visit's one barrier: the session fails with a *PanicError naming
// the panicking task, every task's endpoint claim is released, and the
// worker goes on to run the next session.
func TestHandOffPanicAfterReceive(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	p := newPooledStreaming(t)
	var log stepLog
	tasks := p.tasks(t, 4, true, &log)
	// The sink (ready, value, ready, value, ...) panics on the Step after
	// its second value.
	sink := -1
	for i, st := range p.steppers {
		if st.Role() == "t" {
			sink = i
		}
	}
	tasks[sink].(directedStepper).panic = func(st *session.Stepper) bool {
		return st.Steps() == 4 && !st.Sent()
	}
	err := runOne(t, s, tasks)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("session ended with %v, want a *PanicError", err)
	}
	if want := fmt.Sprintf("task %d: stepper bug", sink); pe.Value != want {
		t.Errorf("PanicError.Value = %v, want %q", pe.Value, want)
	}
	if want := fmt.Sprintf(" task %d: ", sink); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name task %d", err, sink)
	}
	if !strings.Contains(string(pe.Stack), "loggedStepper") {
		t.Error("PanicError.Stack does not show the panic site")
	}
	last := log.steps[len(log.steps)-1]
	if last.task != sink || !last.progress {
		t.Fatalf("the panicking Step did not follow the sink's receive in the same visit: last logged %+v", last)
	}
	for _, st := range p.steppers {
		if !st.Done() {
			t.Errorf("role %s's claim was not released", st.Role())
		}
	}
	// The worker survived, and the released claims take a new run.
	var next stepLog
	if err := runOne(t, s, p.tasks(t, 4, true, &next)); err != nil {
		t.Fatalf("session after the panic: %v", err)
	}
}

// A panic in onDone is not a stepper fault: it unwinds the goroutine that
// ran the visit, whether the session finished cleanly or on a recovered
// Step panic. A Wake runs the visit on the caller's goroutine, where the
// escape can be observed. The escape leaves the worker able to take the
// next inline wake and the job uncounted, so Close returns.
func TestOnDonePanicEscapes(t *testing.T) {
	for _, stepPanics := range []bool{false, true} {
		t.Run(fmt.Sprintf("stepPanics=%v", stepPanics), func(t *testing.T) {
			s := New(Options{Workers: 1})
			release := make(chan struct{})
			st := stepFunc(func() (bool, error) {
				select {
				case <-release:
				default:
					return false, session.ErrWouldBlock
				}
				if stepPanics {
					panic("stepper bug")
				}
				return true, nil
			})
			var outcome error
			wk, err := s.GoExternal(time.Time{}, func(err error) {
				outcome = err
				panic("onDone bug")
			}, st)
			if err != nil {
				t.Fatal(err)
			}
			w := s.workers[0]
			for start := time.Now(); ; time.Sleep(time.Millisecond) {
				if wk.isParked() {
					break
				}
				if time.Since(start) > 10*time.Second {
					t.Fatal("session never parked")
				}
			}
			close(release)
			got := func() (v any) {
				defer func() { v = recover() }()
				wk.Wake()
				return nil
			}()
			if got != "onDone bug" {
				t.Fatalf("Wake recovered %v, want the onDone panic", got)
			}
			var pe *PanicError
			if errors.As(outcome, &pe) != stepPanics {
				t.Fatalf("onDone saw %v with stepPanics=%v", outcome, stepPanics)
			}
			w.mu.Lock()
			inline := w.inline
			w.mu.Unlock()
			if inline {
				t.Fatal("the escaped panic left the worker's inline visit marked running")
			}
			// The limit only detects a hang; Close returns at once.
			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not return after the onDone panic")
			}
		})
	}
}
