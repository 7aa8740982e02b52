package bench

// This file is the multi-session throughput experiment behind
// BENCH_sched.json (`make bench SUITE=sched`): sessions/sec as a function of
// the number of concurrent sessions (1 → 100k) and the worker-pool width
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
// with schedStreamValues values, then stop. A non-nil hold makes its first
// choice wait until hold is closed (NewPooledScheduler's pool fill);
// ResetStrategy clears it.
type valuesThenStop struct {
	sent int
	hold <-chan struct{}
}

func (v *valuesThenStop) Choose(_ fsm.State, options []fsm.Transition) int {
	if v.hold != nil {
		<-v.hold
	}
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
func (v *valuesThenStop) ResetStrategy() { v.sent, v.hold = 0, nil }

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

// pooledBacklog is the pooled rows' admission cap per worker: the
// scheduler's default, set explicitly because NewPooledScheduler fills
// exactly this many instances per worker.
const pooledBacklog = 1024

// NewPooledScheduler starts the scheduler the pooled rows run on and fills
// its free lists: every worker ends up holding exactly pooledBacklog
// recycled instances of the streaming base. That is the most a worker ever
// builds (a pool miss needs every instance it built to be in flight, and
// Backlog caps those), so the runs measured afterwards build none and
// their allocs/op is the recycle path's alone, whatever the interleaving
// of producer and workers. The fill enqueues pooledBacklog sessions per
// worker whose source holds its first choice until all are admitted: none
// can finish, so every admission is a miss and no producer call blocks.
func NewPooledScheduler(workers int, noSteal bool) (*sched.Scheduler, error) {
	base, err := schedBaseSession()
	if err != nil {
		return nil, err
	}
	s := sched.New(sched.Options{Workers: workers, NoSteal: noSteal, Backlog: pooledBacklog})
	release := make(chan struct{})
	held := func(r types.Role) session.Strategy {
		if r == "s" {
			return &valuesThenStop{hold: release}
		}
		return session.FirstBranch{}
	}
	for i := 0; i < workers*pooledBacklog; i++ {
		if err := s.GoSessionPooled(base, schedSessionBudget, held, time.Time{}, nil); err != nil {
			close(release)
			s.Close()
			return nil, fmt.Errorf("bench: filling the pool, session %d: %w", i, err)
		}
	}
	close(release)
	if err := s.Wait(); err != nil {
		s.Close()
		return nil, fmt.Errorf("bench: filling the pool (%d workers): %w", workers, err)
	}
	// Two untimed runs over the full pool, so whatever else grows on
	// first use (the workers' active lists, the runtime's wait queues) has
	// grown before timing.
	for i := 0; i < 2; i++ {
		if _, err := SchedThroughputPooled(s, 4*workers*pooledBacklog); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// SchedThroughputPooled is SchedThroughput over the scheduler's pooled
// enqueue path (sched.GoSessionPooled) on s, a scheduler from
// NewPooledScheduler: instead of forking a fresh instance per session,
// finished instances are recycled from per-worker free lists, and the
// bounded Backlog admission keeps resident memory flat — this is the path
// that holds sessions/sec level from 10k to 1M concurrent sessions. It
// returns once all n sessions have finished. The payload protocol,
// strategies and budgets are identical to SchedThroughput, so the two
// columns are directly comparable.
func SchedThroughputPooled(s *sched.Scheduler, n int) (int, error) {
	base, err := schedBaseSession()
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if err := s.GoSessionPooled(base, schedSessionBudget, schedStrategy, time.Time{}, nil); err != nil {
			return 0, fmt.Errorf("bench: pooled sched session %d: %w", i, err)
		}
	}
	if err := s.Wait(); err != nil {
		return 0, fmt.Errorf("bench: pooled sched run (%d sessions): %w", n, err)
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
