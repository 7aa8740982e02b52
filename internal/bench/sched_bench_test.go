package bench

// The BENCH_sched.json benchmarks: sessions/sec vs concurrent-session count
// at several GOMAXPROCS settings (`make bench SUITE=sched`). The sched
// column is the scheduler (fixed worker pool, non-blocking stepping); the goroutines
// column is the classic 2-goroutines-per-session blocking shape, capped at
// 10k sessions where its 2n parked goroutines stop being a sensible
// baseline (100k sessions would park 200k goroutines).

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
)

// schedSessionCounts is the session-count axis (1 → 100k).
var schedSessionCounts = []int{1, 100, 10000, 100000}

// schedProcSettings is the GOMAXPROCS / worker-pool axis.
var schedProcSettings = []int{1, 2, 4}

func BenchmarkSchedThroughput(b *testing.B) {
	for _, procs := range schedProcSettings {
		for _, n := range schedSessionCounts {
			b.Run(fmt.Sprintf("sessions=%d/procs=%d", n, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := SchedThroughput(procs, n); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
			})
		}
	}
}

// schedPooledCounts is the pooled session-count axis: the flat-throughput
// claim is about the high end, so it starts where the unpooled axis gets
// expensive and rides to one million concurrent sessions (resident memory
// stays Backlog×Workers instances, so the row completes on a small box).
var schedPooledCounts = []int{10000, 100000, 1000000}

func stealName(noSteal bool) string {
	if noSteal {
		return "off"
	}
	return "on"
}

func BenchmarkSchedPooledThroughput(b *testing.B) {
	for _, procs := range schedProcSettings {
		for _, noSteal := range []bool{false, true} {
			for _, n := range schedPooledCounts {
				if n == 1000000 && procs != 1 {
					// One 1M row per steal setting is the scaling witness;
					// repeating it per GOMAXPROCS only slows the suite.
					continue
				}
				name := fmt.Sprintf("sessions=%d/procs=%d/steal=%s", n, procs, stealName(noSteal))
				b.Run(name, func(b *testing.B) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					s, err := NewPooledScheduler(procs, noSteal)
					if err != nil {
						b.Fatal(err)
					}
					defer s.Close()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := SchedThroughputPooled(s, n); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
				})
			}
		}
	}
}

// BenchmarkSchedPooledSteady is the allocation column behind the pooling
// claim: one warmed worker running the streaming protocol through the
// pooled enqueue path, synchronously — allocs/op and B/op must both read 0
// (the tier-1 pin TestSchedPooledZeroAllocSteadyState asserts the same
// property via testing.AllocsPerRun; this row makes it visible in
// BENCH_sched.json and gateable by cmd/benchcheck).
func BenchmarkSchedPooledSteady(b *testing.B) {
	base, err := schedBaseSession()
	if err != nil {
		b.Fatal(err)
	}
	s := sched.New(sched.Options{Workers: 1, NoSteal: true})
	defer s.Close()
	done := make(chan error, 1)
	onDone := func(err error) { done <- err }
	run := func() error {
		if err := s.GoSessionPooled(base, schedSessionBudget, schedStrategy, time.Time{}, onDone); err != nil {
			return err
		}
		return <-done
	}
	for i := 0; i < 64; i++ { // warm the pool and the worker's slices
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	// One session per op, so the row carries the same rate metric as the
	// rest of the sched matrix (BENCH_sched.json is gated on it).
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
}

// BenchmarkSchedPooledSteadySteal is BenchmarkSchedPooledSteady's sibling
// with work stealing on: two workers, each stepping one session at a time
// (MaxActive 1), take bursts of 8 pooled sessions, so every burst leaves
// overflow in an inbox for the other worker to steal. A stolen session
// still recycles onto its home worker's free list, so after warm-up the row
// must read 0 allocs/op and 0 B/op, like the one-worker row.
func BenchmarkSchedPooledSteadySteal(b *testing.B) {
	base, err := schedBaseSession()
	if err != nil {
		b.Fatal(err)
	}
	const burst = 8
	s := sched.New(sched.Options{Workers: 2, MaxActive: 1, Backlog: burst})
	defer s.Close()
	done := make(chan error, burst)
	onDone := func(err error) { done <- err }
	run := func(n int) error {
		for n > 0 {
			k := min(n, burst)
			for i := 0; i < k; i++ {
				if err := s.GoSessionPooled(base, schedSessionBudget, schedStrategy, time.Time{}, onDone); err != nil {
					return err
				}
			}
			for i := 0; i < k; i++ {
				if err := <-done; err != nil {
					return err
				}
			}
			n -= k
		}
		return nil
	}
	if err := run(1024); err != nil { // warm the pools, the workers' slices and the thieves' scratch
		b.Fatal(err)
	}
	steals := s.Steals()
	b.ReportAllocs()
	b.ResetTimer()
	if err := run(b.N); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
	b.ReportMetric(float64(s.Steals()-steals)/float64(b.N), "steals/session")
}

func BenchmarkSchedGoroutineBaseline(b *testing.B) {
	for _, n := range schedSessionCounts {
		if n > 10000 {
			continue
		}
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SchedGoroutineBaseline(n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
		})
	}
}

// TestSchedThroughputSmall is the tier-1 pin that the benchmark harness
// itself is sound: a small run completes with every session ending cleanly,
// on the forking, pooled (both steal settings) and goroutine-baseline paths.
func TestSchedThroughputSmall(t *testing.T) {
	for _, workers := range []int{1, 3} {
		if _, err := SchedThroughput(workers, 64); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, noSteal := range []bool{false, true} {
			s, err := NewPooledScheduler(workers, noSteal)
			if err != nil {
				t.Fatalf("workers=%d noSteal=%v: %v", workers, noSteal, err)
			}
			if _, err := SchedThroughputPooled(s, 64); err != nil {
				t.Fatalf("workers=%d noSteal=%v: %v", workers, noSteal, err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("workers=%d noSteal=%v: Close: %v", workers, noSteal, err)
			}
		}
	}
	if _, err := SchedGoroutineBaseline(32); err != nil {
		t.Fatal(err)
	}
}

// residentBudget is the resident-footprint target per parked two-role
// streaming instance on the pooled layout, in bytes (ROADMAP item 2).
const residentBudget = 1536

// BenchmarkSchedPooledResident is the resident-footprint row: 10k streaming
// instances parked mid-protocol on the layout the pooled scheduler forks
// (parkResident). B/session is the live heap they hold after a GC, and
// allocs/session the allocations it took to build them; the row fails above
// residentBudget. sessions/sec is the build-and-park rate, the metric every
// sched row carries.
func BenchmarkSchedPooledResident(b *testing.B) {
	const n = 10000
	b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
		b.ReportAllocs()
		var bytes, allocs float64
		for i := 0; i < b.N; i++ {
			parked, by, al, err := parkResident(n)
			if err != nil {
				b.Fatal(err)
			}
			runtime.KeepAlive(parked)
			bytes, allocs = by, al
		}
		if bytes > residentBudget {
			b.Fatalf("%.0f B per parked session, budget %d", bytes, residentBudget)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
		b.ReportMetric(bytes, "B/session")
		b.ReportMetric(allocs, "allocs/session")
	})
}

// TestSchedPooledResidentBudget is the tier-1 pin of the resident row: a
// parked streaming instance on the pooled layout holds at most
// residentBudget bytes of live heap.
func TestSchedPooledResidentBudget(t *testing.T) {
	parked, bytes, allocs, err := parkResident(5000)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(parked)
	if bytes > residentBudget {
		t.Fatalf("%.0f B (%.1f allocations) per parked session, budget %d B", bytes, allocs, residentBudget)
	}
}

// residentSession is one parked instance of the resident row: the pooled
// fork and its steppers, as a scheduler bundle holds them between visits.
type residentSession struct {
	sess     *session.Session
	steppers []*session.Stepper
}

// residentPasses is how many stepping passes each parked instance has
// taken: enough that both of its routes have carried a message.
const residentPasses = 4

// parkResident forks n instances of the streaming base the way the pooled
// scheduler does (Session.ForkLocal), claims their steppers and steps each
// role residentPasses times, leaving every instance mid-protocol. It
// returns the instances with the live heap and the allocation count they
// added, per instance, measured after a GC on each side.
func parkResident(n int) ([]residentSession, float64, float64, error) {
	base, err := schedBaseSession()
	if err != nil {
		return nil, 0, 0, err
	}
	parked := make([]residentSession, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range parked {
		inst := base.ForkLocal()
		steppers, err := inst.Steppers(schedStrategy, func(types.Role) int { return schedSessionBudget })
		if err != nil {
			return nil, 0, 0, err
		}
		for pass := 0; pass < residentPasses; pass++ {
			for _, st := range steppers {
				if _, err := st.Step(); err != nil && err != session.ErrWouldBlock {
					return nil, 0, 0, err
				}
			}
		}
		parked[i] = residentSession{sess: inst, steppers: steppers}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perSession := func(a, b uint64) float64 { return (float64(a) - float64(b)) / float64(n) }
	return parked, perSession(after.HeapAlloc, before.HeapAlloc), perSession(after.Mallocs, before.Mallocs), nil
}

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
