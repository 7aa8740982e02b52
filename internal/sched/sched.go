// Package sched multiplexes many verified sessions over a fixed pool of
// worker goroutines. The paper's evaluation (and this repo's benchmarks up
// to PR 4) runs one session at a time on dedicated goroutines — 2×N parked
// goroutines for N in-flight sessions. This package is the production-shape
// alternative: sessions are expressed as non-blocking steppers (each Step
// performs at most one protocol action and yields session.ErrWouldBlock when
// its substrate cannot progress), and a scheduler drives thousands of them
// over GOMAXPROCS workers.
//
// Design:
//
//   - Submission. Go (raw steppers), GoExternal (raw steppers woken from
//     outside), GoSession (a session instance) and GoSessionPooled (recycled
//     instances of a base session) all enqueue through one path.
//
//   - Sharding. Every session is placed whole on one worker (round-robin at
//     enqueue time). All of a session's peers therefore live on the same
//     worker, so ready/parked bookkeeping needs no cross-worker
//     synchronisation and the SPSC substrate operations of one session
//     never contend.
//
//   - Work stealing. Round-robin placement balances counts, not durations: a
//     shard that drew the long sessions stalls its backlog while other
//     workers sleep. An idle worker therefore steals whole sessions from the
//     deepest inbox. Only inbox residents are stealable — a session in an
//     inbox is quiescent by construction (no worker is stepping it, no
//     channel op is in flight), so migration never violates the SPSC
//     contract; sessions being stepped (active) or parked awaiting an
//     external wake (waiting) never move. The external-readiness Waker
//     follows a migrated session through its owner pointer, which is
//     retargeted under the victim's lock. Options.NoSteal disables stealing
//     for ablation.
//
//   - Pooling. GoSessionPooled recycles the entire per-instance object
//     graph — forked session, network, routes, endpoints, monitors,
//     steppers, job and task records — through per-worker free lists keyed
//     by the base session, so scheduler steady state allocates nothing per
//     session-run (the Session.Reset/Stepper.Reset reuse path). Its forks
//     run on single-owner routes (Session.ForkLocal, channel.Local) when
//     the base is on the default network: one worker at a time steps both
//     ends. Admission is bounded: Options.Backlog caps each worker's
//     in-flight sessions built by the scheduler (GoSession,
//     GoSessionPooled), and those calls block until a slot frees, which
//     both bounds memory at any concurrency and is what makes the pool
//     actually hit (an unbounded producer outruns the workers and every
//     enqueue would miss).
//
//   - Ready/parked bookkeeping. A visit makes passes over a session's
//     tasks. A task whose stepper reports its direction (Directed, as
//     session.Stepper does) hands off: it is stepped again after each
//     receive and yields to the next task after a send, so a role acts on
//     a message as soon as it has it and is not stepped while it waits on a
//     reply; other steppers take one step per pass. A task that reports
//     ErrWouldBlock is parked; any sibling progress moves all parked tasks
//     back to ready. A pass in which no task progresses is sterile, and a
//     sterile pass is confirmed by one more before anything is decided: a
//     fault-injected route (channel.Faulty) charges its spurious refusal
//     once per message and passes the retry, so after two sterile passes
//     only a close, a delivery from outside the session or the deadline
//     can unblock it. Then a session with a deliberately stopped task
//     finishes clean; one past its deadline fails with a *TimeoutError;
//     one with neither a deadline nor a Waker fails with a *DeadlockError
//     (impossible for verified sessions, loud for buggy steppers) instead
//     of spinning; and the rest park. Nothing polls.
//
//   - Parking. A parked session leaves the active list until its Waker
//     fires (GoExternal: wire Wake as a transport's readiness hook) or its
//     deadline timer does. Wake visits it at once on the waking goroutine
//     — usually the transport pump that just delivered its message — so a
//     round trip over a socket needs no hand-off to a worker; at most one
//     such inline visit runs per worker, and a wake that finds one running
//     hands the session to the inbox.
//
//   - Fairness. A worker steps each session for at most Quantum actions
//     before rotating to its next session, so one long-running session
//     cannot starve the rest of its shard.
//
//   - Teardown. A task error aborts the session's remaining tasks (their
//     Abort releases endpoint claims), and so does a panic inside Step,
//     which one recover barrier per visit turns into a *PanicError; Close
//     stops intake, drains every in-flight session to completion and joins
//     the workers.
//
// The steppers the runtime provides are session.Stepper (monitored, driven
// from the verified FSM — see GoSession) and the generated Try* state
// methods of internal/codegen; anything implementing Stepper schedules the
// same way. See DESIGN.md, "Non-blocking stepping and the scheduler", for
// why commit-on-success stepping preserves the Tier-2 safety argument, and
// EXPERIMENTS.md for the throughput methodology (`make bench SUITE=sched`).
package sched

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/session"
	"repro/internal/types"
)

// Stepper is one session task in non-blocking units. Step performs at most
// one protocol action:
//
//   - (false, nil): progress was made; step again.
//   - (false, session.ErrWouldBlock): no effect; the task cannot proceed
//     until a peer in the same session makes progress.
//   - (true, nil): the task completed its protocol.
//   - (true, session.ErrStopped): the task stopped deliberately at a step
//     budget (bounded runs of infinite protocols); not a failure.
//   - (true, err): the task faulted; the session fails and its remaining
//     tasks are aborted.
//
// A Stepper is only ever stepped by one goroutine at a time. One that also
// implements Directed tells the scheduler which way its last action went,
// and is stepped in hand-off order (see visit); one that does not is
// stepped once per pass.
type Stepper interface {
	Step() (done bool, err error)
}

// Directed is implemented by steppers that report the direction of their
// last committed action: Sent is true after a send and false after a
// receive. The scheduler steps a task again at once after it receives (a
// role that has taken its message usually acts again) and moves on to the
// next task after it sends (a role that has just sent would next wait on a
// reply its peer has not produced). session.Stepper implements it. The
// scheduler checks for it once, when it builds the task.
type Directed interface {
	Sent() bool
}

// Aborter is implemented by steppers that hold resources (endpoint claims);
// Abort releases them when the scheduler abandons the task because a sibling
// faulted or the session deadlocked. session.Stepper implements it.
type Aborter interface {
	Abort()
}

// ErrClosed is returned by every enqueue (Go, GoExternal, GoSession,
// GoSessionPooled) on a scheduler whose Close has begun.
var ErrClosed = errors.New("sched: scheduler closed")

// ErrDeadlock reports a session whose tasks were all parked on would-block
// with no runnable peer: since a session is sharded whole onto one worker,
// nothing outside the session can unblock it, so the scheduler fails it
// rather than poll forever. Verified sessions cannot reach this state; a
// hand-written stepper that forgets an action can. The error actually
// surfaced is a *DeadlockError wrapping this sentinel, naming the session
// and its stuck roles.
var ErrDeadlock = errors.New("sched: session deadlocked (every task would-block, no peer can progress)")

// DeadlockError is the typed form of ErrDeadlock: it names the session (its
// enqueue sequence number) and the roles stuck at the sterile quiescence, so
// a failure among thousands of multiplexed sessions is attributable.
// errors.Is(err, ErrDeadlock) still holds.
type DeadlockError struct {
	// Session is the scheduler-wide enqueue sequence number of the session.
	Session uint64
	// Stuck lists the roles of the tasks that were parked (for steppers that
	// expose a Role; empty otherwise).
	Stuck []types.Role
}

func (e *DeadlockError) Error() string {
	if len(e.Stuck) > 0 {
		return fmt.Sprintf("sched: session %d deadlocked: roles %v all would-block with no runnable peer", e.Session, e.Stuck)
	}
	return fmt.Sprintf("sched: session %d deadlocked: every task would-block with no runnable peer", e.Session)
}

// Unwrap exposes the ErrDeadlock sentinel to errors.Is.
//
//repro:keep errors.Is and errors.As call it through an anonymous interface
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// TimeoutError reports a session that exceeded its deadline (the deadline
// argument of Go, GoExternal or GoSessionPooled) while parked: its deadline
// timer wakes it and the scheduler abandons it. It unwraps to
// session.ErrTimeout, the sentinel shared by every deadline expiry in the
// runtime.
type TimeoutError struct {
	// Session is the scheduler-wide enqueue sequence number of the session.
	Session uint64
	// Stuck lists the roles still parked when the deadline passed.
	Stuck []types.Role
}

func (e *TimeoutError) Error() string {
	if len(e.Stuck) > 0 {
		return fmt.Sprintf("sched: session %d deadline exceeded: roles %v still parked", e.Session, e.Stuck)
	}
	return fmt.Sprintf("sched: session %d deadline exceeded", e.Session)
}

// Unwrap exposes the session.ErrTimeout sentinel to errors.Is.
//
//repro:keep errors.Is and errors.As call it through an anonymous interface
func (e *TimeoutError) Unwrap() error { return session.ErrTimeout }

// PanicError is a stepper panic converted into a session fault: the worker
// survives (the panic is recovered by the visit that was stepping it), the
// panicking task and its siblings are aborted, and the session's onDone
// observes this error, wrapped with the session and task index, carrying the
// recovered value and the stack at the panic site.
type PanicError struct {
	// Value is the value the stepper panicked with.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("sched: stepper panicked: %v", e.Value) }

// Options configures a Scheduler.
type Options struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// Quantum is the maximum number of protocol actions one session may
	// perform per worker visit before the worker rotates to its next
	// session; 0 means 64.
	Quantum int
	// NoSteal disables work stealing: sessions run to completion on the
	// worker they were placed on, as before the stealing scheduler. The
	// default (stealing enabled) lets idle workers claim quiescent sessions
	// from the deepest inbox. NoSteal exists for the steal-on/steal-off
	// ablation and for the trace-equivalence harness.
	NoSteal bool
	// MaxActive caps how many sessions one worker steps concurrently; the
	// overflow stays in its inbox, where idle workers can steal it. 0 means
	// 256. A smaller cap makes a hot shard's backlog visible (stealable)
	// sooner at the cost of more inbox churn.
	MaxActive int
	// Backlog caps each worker's in-flight sessions built by the scheduler
	// (GoSession, GoSessionPooled): enqueues beyond it block until a slot
	// frees. 0 means 1024. The cap bounds resident memory at any offered
	// load and keeps the recycle loop tight enough that the free lists
	// actually hit. Raw-stepper enqueues (Go, GoExternal) are not admission
	// controlled.
	Backlog int
}

// Scheduler runs enqueued sessions until they complete.
// Workers start immediately at New; Wait blocks for completion of everything
// added so far; Close drains and stops the pool.
type Scheduler struct {
	workers   []*worker
	quantum   int
	steal     bool // work stealing enabled (!Options.NoSteal)
	maxActive int
	backlog   int
	next      atomic.Uint64 // round-robin shard counter; also the session id
	stole     atomic.Uint64 // sessions migrated by stealing, for Steals()
	built     atomic.Uint64 // pooled bundles built on a pool miss, for tests

	jobs sync.WaitGroup // in-flight sessions

	mu     sync.Mutex
	closed bool  // intake stopped; guarded by mu so enqueue's jobs.Add
	first  error // serializes against Close's jobs.Wait

	join sync.WaitGroup // worker goroutines
}

// task is one stepper plus its parked/done bookkeeping slot.
type task struct {
	s      Stepper
	dir    Directed // s as a Directed, or nil: one step per pass
	parked bool
	done   bool
}

// newTask wraps st, resolving its direction report once.
func newTask(st Stepper) *task {
	d, _ := st.(Directed)
	return &task{s: st, dir: d}
}

// job is one session on a worker: its tasks and their ready/parked counts.
type job struct {
	id       uint64    // enqueue sequence number, for error attribution
	deadline time.Time // zero: no deadline (sterile quiescence fails fast)
	tasks    []*task
	parked   int
	done     int
	stopped  bool // some task stopped deliberately (session.ErrStopped)
	idle     bool // last visit ended sterile with a wake to wait for: park it
	// waiting marks a job parked off its owner's active list until a Wake;
	// guarded by the owner's mu.
	waiting bool
	onDone  func(error)

	// Parking bookkeeping. wakes counts Waker.Wake calls (the GoExternal
	// Waker's, or the deadline timer's); seen is the snapshot taken at the
	// top of each visit. A session is parked off the active list only when
	// the two match at park time — a wake that raced the sterile passes
	// keeps it active, so a readiness event can never be lost between a
	// failed Try and the park.
	external bool // a GoExternal Waker can wake it
	wakes    atomic.Uint64
	seen     uint64
	timer    *time.Timer // wakes the session at its deadline; stopped at finish

	// owner is the worker currently responsible for the job. It changes
	// only when the job is stolen — in an inbox, hence quiescent — and the
	// store happens under the victim's lock, so any party holding a
	// worker's lock and observing owner == that worker knows no migration
	// can complete concurrently. Waker.Wake navigates by it.
	owner atomic.Pointer[worker]
	// home is the worker whose admission slot (Backlog) the job occupies;
	// nil for raw-stepper jobs. Unlike owner it never changes: a stolen job
	// still releases its home's slot at finish.
	home   *worker
	bundle *bundle // the scheduler-built object graph; nil for raw steppers
}

type worker struct {
	mu       sync.Mutex
	cond     *sync.Cond
	prodCond *sync.Cond // pooled producers blocked on a full Backlog
	inbox    []*job
	stopped  bool
	pending  int // in-flight scheduler-built jobs homed here (Backlog slots)
	free     map[*session.Session][]*bundle
	idle     bool // asleep (or hunting): a wakeOne candidate
	poked    bool // wakeOne fired since the worker last cleared it
	inline   bool // a Waker.Wake is visiting one of this worker's sessions

	active []*job // owned by the worker goroutine
	loot   []*job // trySteal's scratch, owned by the worker goroutine
}

// bundle is the per-instance object graph of a session the scheduler
// builds: one session instance (network, routes, endpoints, monitors), its
// steppers and strategies, and the job/task records that schedule it. A
// pooled bundle (GoSessionPooled) lives on exactly one worker's free list
// between runs, keyed by the base session it was forked from so
// protocol-mismatched reuse is impossible; one with no base (GoSession) is
// dropped at finish.
type bundle struct {
	base     *session.Session // pool key; nil: never recycled
	sess     *session.Session
	steppers []*session.Stepper
	strats   []session.Strategy
	job      job
}

// New starts a scheduler with opts.Workers worker goroutines.
func New(opts Options) *Scheduler {
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	q := opts.Quantum
	if q <= 0 {
		q = 64
	}
	ma := opts.MaxActive
	if ma <= 0 {
		ma = 256
	}
	bl := opts.Backlog
	if bl <= 0 {
		bl = 1024
	}
	s := &Scheduler{
		quantum:   q,
		steal:     !opts.NoSteal,
		maxActive: ma,
		backlog:   bl,
	}
	// Build the full worker set before starting any goroutine: workers scan
	// s.workers when stealing, so the slice must be complete (and never
	// mutated again) before the first worker can observe it.
	for i := 0; i < n; i++ {
		w := &worker{
			free: map[*session.Session][]*bundle{},
		}
		w.cond = sync.NewCond(&w.mu)
		w.prodCond = sync.NewCond(&w.mu)
		s.workers = append(s.workers, w)
	}
	for _, w := range s.workers {
		s.join.Add(1)
		go s.run(w)
	}
	return s
}

// Steals reports the cumulative number of sessions migrated between workers
// by work stealing. It is a diagnostic for tests and the throughput
// ablation, not a synchronisation point.
func (s *Scheduler) Steals() uint64 { return s.stole.Load() }

// Go enqueues one session given its tasks. All tasks are placed on the same
// worker (sessions are sharded whole; see the package comment), chosen
// round-robin. It returns ErrClosed after Close has begun.
//
// onDone, when non-nil, is invoked exactly once from the worker goroutine
// with the session's outcome (nil for clean completion — deliberate stops
// included — or its first task's fault). The callback must be cheap; it
// runs on the worker.
//
// deadline bounds the session: one still parked when it passes fails with
// a *TimeoutError (wrapping session.ErrTimeout) naming the session and its
// stuck roles; a zero deadline arms none. A deadline also changes the
// meaning of a confirmed sterile pass (every task would-blocks twice over;
// see the package comment): with one armed, the session parks until its
// deadline timer wakes it for a last visit; with none, it fails fast with a
// *DeadlockError.
func (s *Scheduler) Go(deadline time.Time, onDone func(error), steppers ...Stepper) error {
	return s.enqueue(submission{deadline: deadline, onDone: onDone, steppers: steppers}, nil)
}

// Waker re-readies an externally-driven session (GoExternal). Wake is safe
// from any goroutine — it is designed to be installed as a transport's
// readiness hook (netchan's Options.Notify / Fabric.SetNotify) — and is
// cheap enough to call per delivery: a counter bump plus, when the session
// is parked, one visit of it. Wakes on a finished session are no-ops.
type Waker struct {
	s *Scheduler
	j *job
}

// Wake marks the session ready. The counter bump is ordered before the
// parked-mark check, mirroring the park protocol's order (snapshot, then
// park): whichever side loses the race, the wake is observed — either the
// visiting goroutine sees the moved counter and keeps the session runnable,
// or Wake finds it parked and takes it.
//
// A session Wake finds parked runs on the caller's goroutine for at most
// one quantum (see runInline), so the reader pump that just delivered its
// message steps it with no hand-off to a worker. Afterwards it is parked
// again, finished, or appended to its worker's inbox. Only one such inline
// visit runs per worker at a time: a Wake that finds its worker already
// running one (a wake made from inside an inline visit, or a second pump
// delivering at once) hands the session to the worker's inbox instead, so
// wakes nested inside visits recurse at most once per worker. Because of
// the inline visit, Wake must not be called while holding a lock that the
// session's routes take, and it may take as long as one quantum of the
// session's actions.
//
// Wake navigates by the job's owner pointer, which work stealing may
// retarget. The load-lock-recheck loop makes that safe: migrations store
// the new owner under the old owner's lock, so once Wake holds the lock of
// the worker it loaded and the pointer still matches, no migration can
// complete until it releases the lock — and a parked session (or one
// being visited inline) is never stolen at all, so taking it cannot
// race a migration.
func (k *Waker) Wake() {
	j := k.j
	j.wakes.Add(1)
	for {
		w := j.owner.Load()
		w.mu.Lock()
		if j.owner.Load() != w {
			w.mu.Unlock()
			continue
		}
		if !j.waiting {
			w.mu.Unlock()
			return
		}
		j.waiting = false
		if w.inline {
			w.inbox = append(w.inbox, j)
			w.cond.Signal()
			w.mu.Unlock()
			return
		}
		w.inline = true
		w.mu.Unlock()
		k.s.runInline(w, j)
		return
	}
}

// runInline is one visit of an external session w had parked, on the
// goroutine that woke it. While it runs the session is in no
// list of w's, so no worker steps it and no thief can move it. After the
// visit the session parks again (under the same lock that clears
// w.inline), finishes, or — quantum exhausted, or a wake raced the sterile
// pass — goes to w's inbox for the worker.
func (s *Scheduler) runInline(w *worker, j *job) {
	live := false
	// Deferred so that a panic escaping onDone (visit recovers only Step's)
	// still clears w.inline on its way to Wake's caller; the session was
	// finished before onDone ran, so it is not requeued.
	defer func() {
		w.mu.Lock()
		w.inline = false
		if live && !(j.idle && w.park(j)) {
			w.inbox = append(w.inbox, j)
			w.cond.Signal()
		}
		w.mu.Unlock()
	}()
	live = s.visit(j)
}

// GoExternal enqueues a session whose progress can come from outside the
// scheduler: routes backed by sockets (internal/netchan), where a parked
// task is unblocked by a remote peer's traffic, not by a sibling on the
// same shard. Sterile quiescence is therefore not a deadlock here — the
// session parks off the active list until the returned Waker fires (wire
// its Wake as the transport's notify hook) or the deadline passes, at
// which point it fails with a *TimeoutError. With a zero deadline an
// un-woken session parks indefinitely: close the transport or arm a
// deadline for Close/Wait to be able to return.
func (s *Scheduler) GoExternal(deadline time.Time, onDone func(error), steppers ...Stepper) (*Waker, error) {
	k := &Waker{s: s}
	if err := s.enqueue(submission{deadline: deadline, onDone: onDone, steppers: steppers, wake: k}, nil); err != nil {
		return nil, err
	}
	return k, nil
}

// GoSession enqueues one monitored session: every role of sess is driven
// from its verified FSM by a session.Stepper over the strategy strat(role),
// each bounded to maxSteps actions. This is the convenience the throughput
// benchmarks and examples/manysessions use — verify a protocol once, then
// sess.Fork() per instance and GoSession each fork.
//
// GoSession is GoSessionPooled without the fork and the recycle: sess
// itself runs, and is dropped (never pooled) when it finishes. Like every
// session the scheduler builds, it takes a Backlog slot, so GoSession
// blocks while the target worker has Options.Backlog of them in flight.
func (s *Scheduler) GoSession(sess *session.Session, maxSteps int, strat func(types.Role) session.Strategy) error {
	return s.enqueue(submission{sess: sess, maxSteps: maxSteps}, strat)
}

// GoSessionPooled is GoSession over recycled instances: instead of running
// a fork of base per call, it reuses a finished instance's entire object
// graph — network, routes, endpoints, monitors, steppers, job records —
// from the target worker's free list (Session.Reset + Stepper.Reset),
// forking fresh only on a pool miss or when the substrate declines to
// reset. In steady state the call allocates nothing.
//
// The forks are Session.ForkLocal's: the scheduler steps both ends of each
// route, one worker at a time, so a base on the default network gets
// single-owner routes (channel.Local) with no cross-core publication. A
// base Rewired onto another substrate (a k-bounded ring, channel.Faulty, a
// socket) forks on that substrate, as with Fork.
//
// Strategies are pooled too: a recycled instance's strategies are rewound
// in place when they implement session.StrategyResetter, and only otherwise
// replaced via strat (which then allocates). For a zero-alloc steady state,
// make strat return resettable strategies.
//
// Admission is bounded: when the target worker already has Options.Backlog
// scheduler-built sessions in flight, GoSessionPooled blocks until one
// finishes. That backpressure is load-bearing — it bounds resident memory
// at any offered load (1M sessions run in Backlog×Workers instances) and
// keeps enqueues behind the recycle loop so the pool hits. deadline and
// onDone are as for Go.
func (s *Scheduler) GoSessionPooled(base *session.Session, maxSteps int, strat func(types.Role) session.Strategy, deadline time.Time, onDone func(error)) error {
	return s.enqueue(submission{deadline: deadline, onDone: onDone, base: base, maxSteps: maxSteps}, strat)
}

// submission is one enqueue request as an entry point hands it to enqueue:
// either raw steppers (Go, GoExternal), or a session for the scheduler to
// build (GoSession's sess, or a recycled or fresh fork of GoSessionPooled's
// base). The strategy factory of a scheduler-built session travels beside
// it, not in it: the job keeps onDone and the steppers, so every pointer in
// a submission escapes, and a factory inside one would cost a caller that
// passes a method value one heap closure per session.
type submission struct {
	deadline time.Time
	onDone   func(error)
	steppers []Stepper
	wake     *Waker // non-nil: externally driven; enqueue binds it to the job

	base     *session.Session // pooled: instances are recycled keyed by base
	sess     *session.Session // run as is, never recycled
	maxSteps int
}

// enqueue is the one submission path: closed check and job count, id and
// round-robin worker, a Backlog slot and the job for scheduler-built
// sessions, the deadline and its timer, then publication to the worker's
// inbox. strat is the strategy factory of a scheduler-built session.
func (s *Scheduler) enqueue(sub submission, strat func(types.Role) session.Strategy) error {
	built := sub.base != nil || sub.sess != nil
	if !built && len(sub.steppers) == 0 {
		return fmt.Errorf("sched: session with no tasks")
	}
	// The closed check and the counter increment are one critical section:
	// Close sets closed under the same lock before waiting on the counter,
	// so a concurrent enqueue either fails with ErrClosed or has its Add
	// ordered before Close's Wait (never an Add racing a Wait at zero). It
	// follows that no worker is stopped before this job finishes: Close
	// stops workers only once jobs.Wait returns, and this count holds it up.
	// So neither the admission wait nor the publication below re-checks
	// w.stopped.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.jobs.Add(1)
	s.mu.Unlock()
	id := s.next.Add(1)
	w := s.workers[int(id)%len(s.workers)]
	var j *job
	if built {
		b, err := s.admit(w, sub, strat)
		if err != nil {
			s.jobs.Done()
			return err
		}
		j = &b.job
		j.home = w
	} else {
		j = &job{tasks: make([]*task, len(sub.steppers))}
		for i, st := range sub.steppers {
			j.tasks[i] = newTask(st)
		}
	}
	j.id = id
	j.deadline = sub.deadline
	j.onDone = sub.onDone
	j.owner.Store(w)
	if sub.wake != nil {
		j.external = true
		sub.wake.j = j
	}
	// Arm the deadline timer before the job is visible to the worker, so
	// finish's timer.Stop never races this write. A parked session has no
	// poll loop to notice its deadline; the timer's Wake requeues it and the
	// next visit turns the expiry into a *TimeoutError.
	if !j.deadline.IsZero() {
		k := sub.wake
		if k == nil {
			k = &Waker{s: s, j: j}
		}
		j.timer = time.AfterFunc(time.Until(j.deadline), k.Wake)
	}
	w.mu.Lock()
	if sub.base != nil && cap(w.inbox) < 2*s.backlog+2 {
		// The first pooled session sizes the inbox for the most that
		// scheduler-built sessions can fill it to, so the pooled steady
		// state never grows it: a worker holds at most Backlog of its own
		// and steals only when empty, at most half a victim's inbox, so an
		// inbox never exceeds 2×Backlog+2 (nor a steal Backlog+1).
		w.inbox = append(make([]*job, 0, 2*s.backlog+2), w.inbox...)
	}
	w.inbox = append(w.inbox, j)
	w.cond.Signal()
	w.mu.Unlock()
	return nil
}

// admit takes a Backlog slot on w for a scheduler-built session — blocking
// while w has Options.Backlog of them in flight — and returns its bundle:
// a recycled one from w's free list when sub is pooled and one is there,
// otherwise a fresh one. The wait and the free-list pop are one critical
// section. On error the slot is released again.
func (s *Scheduler) admit(w *worker, sub submission, strat func(types.Role) session.Strategy) (*bundle, error) {
	w.mu.Lock()
	for w.pending >= s.backlog {
		w.prodCond.Wait()
	}
	w.pending++
	var b *bundle
	if lst := w.free[sub.base]; len(lst) > 0 { // free never holds a nil key
		b = lst[len(lst)-1]
		lst[len(lst)-1] = nil
		w.free[sub.base] = lst[:len(lst)-1]
	}
	w.mu.Unlock()
	if b != nil {
		b = resetBundle(b, sub.maxSteps, strat)
	}
	if b == nil {
		sess := sub.sess
		if sub.base != nil {
			sess = sub.base.ForkLocal()
			s.built.Add(1)
		}
		var err error
		if b, err = newBundle(sub.base, sess, sub.maxSteps, strat); err != nil {
			w.mu.Lock()
			w.pending--
			w.prodCond.Signal()
			w.mu.Unlock()
			return nil, err
		}
	}
	return b, nil
}

// newBundle builds the object graph that schedules sess: its steppers and
// strategies, and the job/task records. base is the pool key (nil: the
// bundle is never recycled). It is the one builder of scheduler-built
// sessions — GoSession's, and the pool-miss (and first-use) path of
// GoSessionPooled.
func newBundle(base, sess *session.Session, maxSteps int, strat func(types.Role) session.Strategy) (*bundle, error) {
	b := &bundle{base: base, sess: sess, strats: make([]session.Strategy, 0, len(sess.Roles()))}
	steppers, err := sess.Steppers(func(r types.Role) session.Strategy {
		sg := strat(r)
		b.strats = append(b.strats, sg)
		return sg
	}, func(types.Role) int { return maxSteps })
	if err != nil {
		return nil, err
	}
	b.steppers = steppers
	b.job.tasks = make([]*task, len(steppers))
	for i, st := range steppers {
		b.job.tasks[i] = newTask(st)
	}
	b.job.bundle = b
	return b, nil
}

// resetBundle rearms a recycled bundle for a new run, returning nil (fall
// back to a fresh fork; the bundle is abandoned) when the substrate or a
// stepper declines to reset.
func resetBundle(b *bundle, maxSteps int, strat func(types.Role) session.Strategy) *bundle {
	if !b.sess.Reset() {
		return nil
	}
	for i, st := range b.steppers {
		sg := b.strats[i]
		if r, ok := sg.(session.StrategyResetter); ok {
			r.ResetStrategy()
		} else {
			sg = strat(st.Role())
			b.strats[i] = sg
		}
		if err := st.Reset(sg, maxSteps); err != nil {
			// Release the claims re-taken so far; the bundle is dead.
			for k := 0; k < i; k++ {
				b.steppers[k].Abort()
			}
			return nil
		}
	}
	b.job = job{tasks: b.job.tasks, bundle: b}
	for _, t := range b.job.tasks {
		t.parked = false
		t.done = false
	}
	return b
}

// Wait blocks until every session enqueued so far has completed and returns
// the first failure (deliberate session.ErrStopped stops are not failures).
// Wait must not race an enqueue: enqueue, then wait.
func (s *Scheduler) Wait() error {
	s.jobs.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first
}

// Close drains cleanly: it stops intake, waits for every in-flight session
// to complete, stops the workers, and returns the first session failure.
// Close is idempotent; concurrent enqueues fail with ErrClosed.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.jobs.Wait()
	for _, w := range s.workers {
		w.mu.Lock()
		w.stopped = true
		w.cond.Signal()
		w.mu.Unlock()
	}
	s.join.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first
}

// fail records a session failure (first wins, scheduler-wide).
func (s *Scheduler) fail(err error) {
	s.mu.Lock()
	if s.first == nil {
		s.first = err
	}
	s.mu.Unlock()
}

// run is the worker loop: pull newly assigned sessions, then make one pass
// over the active ones, stepping each for up to a quantum of actions. A
// session leaves the active list by completing, failing, or parking (a
// confirmed sterile pass under a Waker or a deadline; see visit), so a pass
// always makes global progress; when there is nothing to do the worker
// sleeps on its condition variable until an enqueue, a steal or a wake
// hands it work or Close stops it.
func (s *Scheduler) run(w *worker) {
	defer s.join.Done()
	for {
		w.mu.Lock()
		for len(w.inbox) == 0 && len(w.active) == 0 && !w.stopped {
			if !s.steal {
				w.cond.Wait()
				continue
			}
			// Out of local work: advertise idleness, then hunt other
			// shards' inboxes. The idle flag makes this worker a wakeOne
			// target; a poke landing during the hunt sets poked under this
			// lock and vetoes the Wait below, so overflow published
			// concurrently with a failed hunt is never slept through.
			w.idle = true
			w.mu.Unlock()
			stole := s.trySteal(w)
			w.mu.Lock()
			if stole || w.poked || len(w.inbox) > 0 || w.stopped {
				w.idle = false
				w.poked = false
				continue
			}
			w.cond.Wait()
			w.idle = false
			w.poked = false
		}
		if w.stopped && len(w.inbox) == 0 && len(w.active) == 0 {
			w.mu.Unlock()
			return
		}
		// Pull at most maxActive sessions; the overflow stays in the inbox
		// where idle workers can steal it (inbox residents are quiescent —
		// the no-mid-step migration invariant holds by construction).
		n := s.maxActive - len(w.active)
		if n > len(w.inbox) {
			n = len(w.inbox)
		}
		if n > 0 {
			w.active = append(w.active, w.inbox[:n]...)
			rem := copy(w.inbox, w.inbox[n:])
			for i := rem; i < len(w.inbox); i++ {
				w.inbox[i] = nil
			}
			w.inbox = w.inbox[:rem]
		}
		overflow := len(w.inbox)
		w.mu.Unlock()
		if overflow > 0 && s.steal {
			// More quiescent work than this worker will step soon: poke one
			// sleeping worker to come steal it.
			s.wakeOne(w)
		}

		keep := w.active[:0]
		for _, j := range w.active {
			// Once finish has recycled a pooled job, j may already be
			// re-armed by a producer, so the worker must not read j after a
			// false return.
			if !s.visit(j) {
				continue
			}
			if j.idle {
				w.mu.Lock()
				parked := w.park(j)
				w.mu.Unlock()
				if parked {
					continue
				}
			}
			keep = append(keep, j)
		}
		// Clear the dropped tail so finished and parked jobs are
		// collectable.
		for i := len(keep); i < len(w.active); i++ {
			w.active[i] = nil
		}
		w.active = keep
	}
}

// trySteal migrates up to half of the deepest inbox onto the thief. Only
// inbox residents move: they are quiescent (no worker steps them, no
// channel operation is in flight), so whole-session migration preserves the
// SPSC no-cross-shard invariant. The owner pointer of each stolen job is
// retargeted under the victim's lock, which is what Waker.Wake's
// load-lock-recheck loop synchronises against. Parked jobs (external
// sessions waiting for a Wake) and active jobs are never touched.
// The jobs cross from one lock to the other in the thief's own scratch
// slice, which only its worker goroutine calls trySteal with, so a steal
// allocates nothing once the slice has grown.
func (s *Scheduler) trySteal(thief *worker) bool {
	var victim *worker
	best := 0
	for _, x := range s.workers {
		if x == thief {
			continue
		}
		x.mu.Lock()
		n := len(x.inbox)
		x.mu.Unlock()
		if n > best {
			best, victim = n, x
		}
	}
	if victim == nil {
		return false
	}
	victim.mu.Lock()
	n := (len(victim.inbox) + 1) / 2
	if n == 0 {
		victim.mu.Unlock()
		return false
	}
	cut := len(victim.inbox) - n
	if cap(thief.loot) < n {
		// Grown at once to the most a steal from this victim can take,
		// not step by step: with a pooled victim's inbox (see enqueue)
		// that is the largest steal there will be.
		thief.loot = make([]*job, 0, (cap(victim.inbox)+1)/2)
	}
	loot := append(thief.loot[:0], victim.inbox[cut:]...)
	for i := cut; i < len(victim.inbox); i++ {
		victim.inbox[i] = nil
	}
	victim.inbox = victim.inbox[:cut]
	for _, j := range loot {
		j.owner.Store(thief)
	}
	victim.mu.Unlock()
	s.stole.Add(uint64(n))
	thief.mu.Lock()
	thief.inbox = append(thief.inbox, loot...)
	thief.mu.Unlock()
	clear(loot) // the scratch must not keep stolen jobs reachable
	thief.loot = loot[:0]
	return true
}

// wakeOne pokes one sleeping (or hunting) worker other than self: called
// when a worker publishes overflow it will not step soon. The poked flag is
// set under the target's lock, closing the race with a hunt that is about
// to conclude "nothing to steal" and sleep.
func (s *Scheduler) wakeOne(self *worker) {
	for _, x := range s.workers {
		if x == self {
			continue
		}
		x.mu.Lock()
		if x.idle && !x.poked {
			x.poked = true
			x.cond.Signal()
			x.mu.Unlock()
			return
		}
		x.mu.Unlock()
	}
}

// stuckRoles lists the roles of a job's not-done tasks, for attributing a
// deadlock or timeout; steppers that do not expose a Role are skipped.
func stuckRoles(j *job) []types.Role {
	var rs []types.Role
	for _, t := range j.tasks {
		if !t.done {
			if r, ok := t.s.(interface{ Role() types.Role }); ok {
				rs = append(rs, r.Role())
			}
		}
	}
	return rs
}

// visit steps one session for at most a quantum of actions, maintaining the
// ready/parked bookkeeping, and reports whether the session stays active.
// A pooled job is recycled inside finish and must not be read after a false
// return.
//
// A pass offers every live task a turn. A Directed task's turn hands off:
// it is stepped again after each receive it commits and ends at its first
// send, would-block or completion, so a role that has just taken its
// message acts on it in the same pass and a ping-pong or ring makes no
// would-blocks in steady state. A task without a direction report takes
// one step per turn. Either way each role performs its own actions in its
// own order; only the interleaving of roles changes, which per-role traces
// do not see.
//
// A sterile pass — every live task would-blocks — is confirmed by one more
// pass before anything is decided: a channel.Faulty route charges its
// spurious refusal once per message and passes the retry, so after two
// sterile passes no spurious refusal is pending and only a close, a
// delivery by a transport pump or the deadline can unblock the session.
// Then the session finishes clean if a task stopped deliberately, fails
// with a *TimeoutError past its deadline, fails with a *DeadlockError when
// it has neither a deadline nor a Waker (nothing can ever unblock it), and
// otherwise reports idle, for the caller to park it until its Waker fires
// or its deadline timer does.
//
// One recover barrier covers the whole visit: a panic inside Step becomes
// a *PanicError faulting the session, naming the task that was stepping,
// and the worker survives. Only Step is covered — a panic in onDone (run by
// finish) still unwinds the goroutine running the visit.
func (s *Scheduler) visit(j *job) (live bool) {
	stepped := 0
	sterile := false
	j.idle = false
	// Snapshot before any Try: a Wake arriving anywhere past this point
	// moves the counter, and park will refuse to park.
	j.seen = j.wakes.Load()
	var cur *task // the task inside Step; nil between steps
	defer func() {
		if cur != nil {
			if v := recover(); v != nil {
				// The task stays not-done, so finish aborts it (releasing
				// its endpoint claim) along with its siblings.
				pe := &PanicError{Value: v, Stack: debug.Stack()}
				live = s.finish(j, fmt.Errorf("sched: session %d task %d: %w", j.id, indexOf(j, cur), pe))
			}
		}
	}()
	for {
		progressed := false
		for _, t := range j.tasks {
			for again := true; again && !t.done && !t.parked; {
				if stepped >= s.quantum {
					return true // quantum exhausted mid-pass; stay active
				}
				cur = t
				done, err := t.s.Step()
				cur = nil
				switch {
				case done:
					t.done = true
					j.done++
					if errors.Is(err, session.ErrStopped) {
						j.stopped = true
					} else if err != nil {
						return s.finish(j, fmt.Errorf("sched: session %d task %d: %w", j.id, indexOf(j, t), err))
					}
					// Completion is progress: a stop or finish may have
					// published messages parked siblings wait for.
					progressed = true
					j.unparkAll()
				case err == session.ErrWouldBlock, err != nil && errors.Is(err, session.ErrWouldBlock):
					// Step returns the bare sentinel; errors.Is runs only for
					// other errors, so a stepper that wraps it still parks.
					t.parked = true
					j.parked++
				case err != nil:
					// A stepper returning (false, err) for a real error is out
					// of contract and faults the session. The task is left
					// not-done so finish aborts it (releasing its endpoint
					// claim) along with its siblings.
					return s.finish(j, fmt.Errorf("sched: session %d task %d: %w", j.id, indexOf(j, t), err))
				default:
					stepped++
					progressed = true
					j.unparkAll()
					again = t.dir != nil && !t.dir.Sent()
				}
			}
		}
		if j.done == len(j.tasks) {
			return s.finish(j, nil)
		}
		if progressed {
			sterile = false
			continue
		}
		if !sterile {
			// The first sterile pass: re-ready every task for the
			// confirming one.
			sterile = true
			j.unparkAll()
			continue
		}
		switch {
		case j.stopped:
			// The expected end of a bounded run, not a deadlock.
			return s.finish(j, nil)
		case !j.deadline.IsZero() && !time.Now().Before(j.deadline):
			return s.finish(j, &TimeoutError{Session: j.id, Stuck: stuckRoles(j)})
		case !j.external && j.deadline.IsZero():
			return s.finish(j, &DeadlockError{Session: j.id, Stuck: stuckRoles(j)})
		}
		j.idle = true
		j.unparkAll()
		return true
	}
}

// park moves an idle session off the active list, with w.mu held, unless a
// Wake raced in since the visit's snapshot — then it stays active for an
// immediate re-visit. The counter check and the waiting mark are one
// critical section against Waker.Wake, which bumps the counter before
// taking the same lock: every wake either moves the counter in time to veto
// the park, or finds the session parked and requeues it. Lost wakeups are
// structurally impossible.
func (w *worker) park(j *job) bool {
	if j.wakes.Load() != j.seen {
		return false
	}
	j.waiting = true
	return true
}

// unparkAll re-readies every parked task: some sibling just made progress,
// which is the only event that can change what a parked task waits on.
func (j *job) unparkAll() {
	if j.parked == 0 {
		return
	}
	for _, t := range j.tasks {
		if t.parked {
			t.parked = false
		}
	}
	j.parked = 0
}

// finish completes a session: tasks still live (a faulted session's
// siblings, or the parked leftovers of a deliberate stop) are aborted so
// their endpoint claims release, and a non-nil err is recorded as the
// scheduler's first failure. A scheduler-built job releases its home
// worker's Backlog slot, unblocking one waiting producer, and a pooled one
// goes back on its home worker's free list — clean outcomes only (a faulted
// instance's substrate state is not trusted for reuse), and only if its
// deadline timer had not fired (its Wake may still be running against the
// job). Recycling home, not onto the worker that finished it, keeps every
// free list within the Backlog of its worker under work stealing. It
// always reports false (drop from the active list).
func (s *Scheduler) finish(j *job, err error) bool {
	quiet := j.timer == nil || j.timer.Stop()
	for _, t := range j.tasks {
		if !t.done {
			if a, ok := t.s.(Aborter); ok {
				a.Abort()
			}
			t.done = true
		}
	}
	if err != nil {
		s.fail(err)
	}
	// Recycle before onDone, and never touch j afterwards: the moment the
	// bundle is visible in a free list (or the Backlog slot frees), a
	// producer may pop it and re-arm the job. Recycling first also means a
	// producer unblocked by onDone — the synchronous enqueue-then-wait
	// loop — always finds the bundle already pooled.
	//
	// No stopped check is needed: Close stops workers only after every
	// counted job, this one included, has finished.
	onDone := j.onDone
	if b := j.bundle; b != nil {
		home := j.home
		home.mu.Lock()
		if err == nil && b.base != nil && quiet {
			home.free[b.base] = append(home.free[b.base], b)
		}
		home.pending--
		home.prodCond.Signal()
		home.mu.Unlock()
	}
	// Deferred so that a panicking onDone still uncounts the job and
	// Close/Wait can return.
	defer s.jobs.Done()
	if onDone != nil {
		onDone(err)
	}
	return false
}

// indexOf locates a task within its job for error context.
func indexOf(j *job, t *task) int {
	for i, x := range j.tasks {
		if x == t {
			return i
		}
	}
	return -1
}
