package bench

// This file is the multi-session throughput experiment behind
// BENCH_sched.json (`make bench-sched`): sessions/sec as a function of the
// number of concurrent sessions (1 → 100k) and the worker-pool width
// (GOMAXPROCS 1/2/4). Where Fig. 6 measures one session at a time on
// dedicated goroutines, this axis measures the production shape the ROADMAP
// asks for — thousands of verified sessions multiplexed over a fixed pool
// via non-blocking stepping (internal/sched). See EXPERIMENTS.md,
// "Multi-session scheduling throughput".

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
)

// schedBase memoises the verified streaming session the throughput runs
// fork: verification happens once per process, instances are cheap forks.
var schedBase struct {
	once sync.Once
	sess *session.Session
	err  error
}

func schedBaseSession() (*session.Session, error) {
	schedBase.once.Do(func() {
		g := types.MustParseGlobal("mu x.t->s:ready.s->t:{value(i32).x, stop.end}")
		schedBase.sess, schedBase.err = session.TopDown(g, nil, core.Options{})
	})
	return schedBase.sess, schedBase.err
}

// schedStreamValues is how many values each benchmark session streams
// before its sink-side stop: enough loop turns that per-session setup does
// not dominate, small enough that 100k sessions stay cheap.
const schedStreamValues = 8

// valuesThenStop drives the streaming source: it answers the sink's readys
// with schedStreamValues values, then stop.
type valuesThenStop struct{ sent int }

func (v *valuesThenStop) Choose(_ fsm.State, options []fsm.Transition) int {
	want := types.Label("stop")
	if v.sent < schedStreamValues {
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
func (v *valuesThenStop) Payload(act fsm.Action) any {
	if act.Label == "value" {
		return int32(v.sent)
	}
	return nil
}
func (v *valuesThenStop) Received(fsm.Action, any) {}

// ResetStrategy implements session.StrategyResetter so the pooled
// throughput runs rewind the source's send counter in place instead of
// allocating a fresh strategy per recycled instance — a requirement for the
// zero-alloc steady state.
func (v *valuesThenStop) ResetStrategy() { v.sent = 0 }

// schedStrategy returns the per-role strategy of one benchmark session.
func schedStrategy(r types.Role) session.Strategy {
	if r == "s" {
		return &valuesThenStop{}
	}
	return session.FirstBranch{}
}

// schedSessionBudget bounds each role generously above the actions a full
// run needs (per loop turn the source and sink each perform 2 actions, plus
// the stop exchange), so completion always comes from the protocol's own
// end, never the budget.
const schedSessionBudget = 4*schedStreamValues + 8

// SchedThroughput runs n complete streaming sessions — verified once,
// forked per instance — over a sched.Scheduler with the given number of
// workers, and returns n. Each session runs to protocol completion
// (schedStreamValues values then stop), so sessions/sec follows directly
// from timing this call.
func SchedThroughput(workers, n int) (int, error) {
	base, err := schedBaseSession()
	if err != nil {
		return 0, err
	}
	s := sched.New(sched.Options{Workers: workers})
	for i := 0; i < n; i++ {
		if err := s.GoSession(base.Fork(), schedSessionBudget, schedStrategy); err != nil {
			s.Close()
			return 0, fmt.Errorf("bench: sched session %d: %w", i, err)
		}
	}
	if err := s.Close(); err != nil {
		return 0, fmt.Errorf("bench: sched run (%d sessions, %d workers): %w", n, workers, err)
	}
	return n, nil
}

// SchedThroughputPooled is SchedThroughput over the scheduler's pooled
// enqueue path (sched.GoSessionPooled): instead of forking a fresh instance
// per session, finished instances are recycled from per-worker free lists,
// and the bounded Backlog admission keeps resident memory flat — this is
// the path that holds sessions/sec level from 10k to 1M concurrent
// sessions. noSteal disables work stealing for the ablation column; the
// payload protocol, strategies and budgets are identical to
// SchedThroughput, so the two columns are directly comparable.
func SchedThroughputPooled(workers, n int, noSteal bool) (int, error) {
	base, err := schedBaseSession()
	if err != nil {
		return 0, err
	}
	s := sched.New(sched.Options{Workers: workers, NoSteal: noSteal})
	// First-failure capture without taking the error's address: &err in the
	// callback would heap-allocate the parameter on every invocation and
	// poison the zero-alloc steady state this function demonstrates.
	var mu sync.Mutex
	var failed error
	onDone := func(err error) {
		if err != nil {
			mu.Lock()
			if failed == nil {
				failed = err
			}
			mu.Unlock()
		}
	}
	for i := 0; i < n; i++ {
		if err := s.GoSessionPooled(base, schedSessionBudget, schedStrategy, time.Time{}, onDone); err != nil {
			s.Close()
			return 0, fmt.Errorf("bench: pooled sched session %d: %w", i, err)
		}
	}
	if err := s.Close(); err != nil {
		return 0, fmt.Errorf("bench: pooled sched run (%d sessions, %d workers, noSteal=%v): %w", n, workers, noSteal, err)
	}
	if failed != nil {
		return 0, fmt.Errorf("bench: pooled sched run: session failed: %w", failed)
	}
	return n, nil
}

// SchedGoroutineBaseline is the classic shape SchedThroughput is compared
// against: the same n streaming sessions, each on its own pair of blocking
// goroutines (2n goroutines in flight), bounded by the same budgets. The
// gap between the two columns is the scheduling axis of BENCH_sched.json.
func SchedGoroutineBaseline(n int) (int, error) {
	base, err := schedBaseSession()
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		inst := base.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := equiv.Run(inst, equiv.Blocking, equiv.Bound(schedSessionBudget), schedStrategy, time.Time{}, nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, fmt.Errorf("bench: goroutine baseline: %w", err)
	}
	return n, nil
}
