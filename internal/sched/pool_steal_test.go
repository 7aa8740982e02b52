package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/session"
	"repro/internal/types"
)

// firstBranchStrat is the shared pooled-path strategy factory: FirstBranch
// is stateless and resettable, so steady-state recycling never replaces it.
func firstBranchStrat(types.Role) session.Strategy { return session.FirstBranch{} }

func TestSchedPooledCompletesMany(t *testing.T) {
	base := adderSession(t)
	for _, workers := range []int{1, 4} {
		s := New(Options{Workers: workers, Backlog: 8})
		var done atomic.Int64
		const n = 300
		for i := 0; i < n; i++ {
			err := s.GoSessionPooled(base, 200, firstBranchStrat, time.Time{}, func(err error) {
				if err == nil {
					done.Add(1)
				}
			})
			if err != nil {
				t.Fatalf("workers=%d: GoSessionPooled %d: %v", workers, i, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		if done.Load() != n {
			t.Fatalf("workers=%d: %d of %d pooled sessions completed cleanly", workers, done.Load(), n)
		}
	}
}

// TestSchedPooledReusesInstances pins that the pool actually hits: with a
// synchronous enqueue-then-wait producer on one worker, every enqueue after
// the first must find the previous instance recycled, so the base session
// is forked exactly once.
func TestSchedPooledReusesInstances(t *testing.T) {
	base := adderSession(t)
	s := New(Options{Workers: 1})
	defer s.Close()
	done := make(chan error, 1)
	onDone := func(err error) { done <- err }
	forks := 0
	// Count pool misses through the worker's free list: after each wait the
	// bundle must be back in the free list, so its length stays 1.
	for i := 0; i < 20; i++ {
		if err := s.GoSessionPooled(base, 200, firstBranchStrat, time.Time{}, onDone); err != nil {
			t.Fatalf("GoSessionPooled %d: %v", i, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		w := s.workers[0]
		w.mu.Lock()
		free := len(w.free[base])
		w.mu.Unlock()
		if free != 1 {
			forks++
		}
	}
	if forks > 1 {
		t.Fatalf("pool missed %d times after warmup; want at most the initial fork", forks)
	}
}

// TestSchedPooledZeroAllocSteadyState is the tentpole's allocation pin: a
// warmed pooled enqueue-run-complete cycle performs zero heap allocations.
// AllocsPerRun runs with GOMAXPROCS=1, so the producer and the single
// worker interleave cooperatively — exactly the steady-state shape the
// throughput benchmark measures.
func TestSchedPooledZeroAllocSteadyState(t *testing.T) {
	base := adderSession(t)
	s := New(Options{Workers: 1, NoSteal: true})
	defer s.Close()
	done := make(chan error, 1)
	onDone := func(err error) { done <- err }
	run := func() {
		if err := s.GoSessionPooled(base, 64, firstBranchStrat, time.Time{}, onDone); err != nil {
			t.Errorf("GoSessionPooled: %v", err)
			return
		}
		if err := <-done; err != nil {
			t.Errorf("session failed: %v", err)
		}
	}
	for i := 0; i < 50; i++ {
		run() // warm the pool, the inbox slice and the free list
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("pooled steady state: %v allocs/op, want 0", n)
	}
}

// gateStepper spins — every Step is a performed action until released, so
// its job monopolises a worker's active slot without ever going idle.
type gateStepper struct{ release *atomic.Bool }

func (g *gateStepper) Step() (bool, error) {
	if g.release.Load() {
		return true, nil
	}
	runtime.Gosched()
	return false, nil
}

// doneStepper completes on its first step.
type doneStepper struct{}

func (doneStepper) Step() (bool, error) { return true, nil }

// TestSchedStealRebalances proves migration: with MaxActive 1, a spinner
// pins worker 1, so quiescent jobs routed to worker 1's inbox can only
// complete if worker 0 steals them. Enqueue ids are sequential and workers
// are chosen by id % n, so with two workers the routing below is exact.
func TestSchedStealRebalances(t *testing.T) {
	s := New(Options{Workers: 2, MaxActive: 1})
	release := &atomic.Bool{}
	// id 1 -> workers[1]: the spinner.
	if err := s.Go(time.Time{}, nil, &gateStepper{release: release}); err != nil {
		t.Fatalf("Go spinner: %v", err)
	}
	var completed atomic.Int64
	const n = 40 // ids 2..41: evens to workers[0], odds to workers[1]
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < n; i++ {
		err := s.Go(deadline, func(err error) {
			if err == nil {
				completed.Add(1)
			}
		}, doneStepper{})
		if err != nil {
			t.Fatalf("Go %d: %v", i, err)
		}
	}
	waitUntil := time.Now().Add(20 * time.Second)
	for completed.Load() < n {
		if time.Now().After(waitUntil) {
			t.Fatalf("only %d of %d quick sessions completed; steals=%d",
				completed.Load(), n, s.Steals())
		}
		time.Sleep(time.Millisecond)
	}
	if s.Steals() == 0 {
		t.Fatal("all sessions completed with zero steals; odd-id jobs should be unreachable without migration")
	}
	release.Store(true)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSchedNoStealHonoured pins the ablation switch: with NoSteal the
// spinner-pinned worker's inbox is never raided, so its jobs stay pending
// until the spinner releases.
func TestSchedNoStealHonoured(t *testing.T) {
	s := New(Options{Workers: 2, MaxActive: 1, NoSteal: true})
	release := &atomic.Bool{}
	if err := s.Go(time.Time{}, nil, &gateStepper{release: release}); err != nil { // id 1 -> workers[1]
		t.Fatalf("Go spinner: %v", err)
	}
	var oddDone atomic.Int64
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 6; i++ { // ids 2..7
		id := i
		err := s.Go(deadline, func(err error) {
			if err == nil && id%2 == 1 { // odd i -> odd id+... track odd-routed
				oddDone.Add(1)
			}
		}, doneStepper{})
		if err != nil {
			t.Fatalf("Go %d: %v", i, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if got := s.Steals(); got != 0 {
		t.Fatalf("NoSteal scheduler performed %d steals", got)
	}
	release.Store(true)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestStealAllocatesNothing pins trySteal's scratch: once the thief's
// slices have grown, moving half of a prepared victim inbox costs no heap
// allocation, and the scratch keeps no stolen job reachable afterwards. The
// scheduler is built by hand, with no worker goroutines, so nothing but the
// call under test touches the inboxes.
func TestStealAllocatesNothing(t *testing.T) {
	thief, victim := &worker{}, &worker{}
	s := &Scheduler{workers: []*worker{thief, victim}}
	jobs := make([]*job, 8)
	for i := range jobs {
		jobs[i] = &job{}
	}
	steal := func() {
		victim.inbox = append(victim.inbox[:0], jobs...)
		thief.inbox = thief.inbox[:0]
		if !s.trySteal(thief) {
			t.Fatal("nothing stolen from a full victim inbox")
		}
	}
	steal() // grow the thief's inbox and scratch
	if n := testing.AllocsPerRun(100, steal); n != 0 {
		t.Fatalf("steal: %v allocs/op, want 0", n)
	}
	if len(thief.inbox) != len(jobs)/2 || thief.inbox[0].owner.Load() != thief {
		t.Fatalf("thief holds %d jobs owned by %p, want %d owned by the thief", len(thief.inbox), thief.inbox[0].owner.Load(), len(jobs)/2)
	}
	for i, j := range thief.loot[:cap(thief.loot)] {
		if j != nil {
			t.Fatalf("scratch slot %d still holds a stolen job", i)
		}
	}
}

// TestSchedPooledBundlesGoHome pins bounded pool memory under stealing:
// with the spinner pinning one worker (MaxActive 1), every pooled session
// routed to it is stolen and finishes on the other worker. Its bundle must
// go back to its home worker's free list, where that worker's next admit
// finds it, so the scheduler builds at most Backlog×Workers bundles for the
// base however many sessions run. Recycled onto the thief's list instead,
// the pinned worker's list stays empty and every session routed to it
// builds a fresh bundle.
func TestSchedPooledBundlesGoHome(t *testing.T) {
	const workers, backlog, n = 2, 4, 200
	base := adderSession(t)
	s := New(Options{Workers: workers, MaxActive: 1, Backlog: backlog})
	release := &atomic.Bool{}
	if err := s.Go(time.Time{}, nil, &gateStepper{release: release}); err != nil {
		t.Fatalf("Go spinner: %v", err)
	}
	var clean atomic.Int64
	for i := 0; i < n; i++ {
		err := s.GoSessionPooled(base, 200, firstBranchStrat, time.Time{}, func(err error) {
			if err == nil {
				clean.Add(1)
			}
		})
		if err != nil {
			t.Fatalf("GoSessionPooled %d: %v", i, err)
		}
	}
	release.Store(true)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if clean.Load() != n {
		t.Fatalf("%d of %d pooled sessions completed cleanly", clean.Load(), n)
	}
	if s.Steals() == 0 {
		t.Fatal("no steals: the pinned worker's sessions must migrate")
	}
	if built := s.built.Load(); built > backlog*workers {
		t.Fatalf("built %d bundles for one base over %d sessions, want at most Backlog×Workers = %d",
			built, n, backlog*workers)
	}
}

// extStepper would-blocks until released: the externally-driven shape.
type extStepper struct{ ready *atomic.Bool }

func (e *extStepper) Step() (bool, error) {
	if e.ready.Load() {
		return true, nil
	}
	return false, session.ErrWouldBlock
}

// TestSchedWakeAfterSteal pins the owner hand-off: an external session
// stolen while quiescent parks on the thief, and a later Wake must find it
// there — the Waker chases job.owner, not the enqueue-time worker.
func TestSchedWakeAfterSteal(t *testing.T) {
	s := New(Options{Workers: 2, MaxActive: 1})
	release := &atomic.Bool{}
	if err := s.Go(time.Time{}, nil, &gateStepper{release: release}); err != nil { // id 1 -> workers[1]
		t.Fatalf("Go spinner: %v", err)
	}
	// id 2 -> workers[0]: keeps worker 0 from stealing before the external
	// session is enqueued (ordering is best-effort; the test is correct
	// either way since the steal is only observed via Steals()).
	if err := s.Go(time.Time{}, nil, doneStepper{}); err != nil {
		t.Fatalf("Go filler: %v", err)
	}
	ready := &atomic.Bool{}
	done := make(chan error, 1)
	// id 3 -> workers[1]: quiescent in the pinned worker's inbox.
	k, err := s.GoExternal(time.Now().Add(30*time.Second), func(err error) { done <- err },
		&extStepper{ready: ready})
	if err != nil {
		t.Fatalf("GoExternal: %v", err)
	}
	waitUntil := time.Now().Add(20 * time.Second)
	for s.Steals() == 0 {
		if time.Now().After(waitUntil) {
			t.Fatal("external session was never stolen")
		}
		time.Sleep(time.Millisecond)
	}
	// Let the thief visit and park it, then wake through the retargeted
	// owner. Wake is counter-first, so even a wake racing the park cannot
	// be lost.
	time.Sleep(10 * time.Millisecond)
	ready.Store(true)
	k.Wake()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("external session: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Wake after steal never completed the session")
	}
	release.Store(true)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
