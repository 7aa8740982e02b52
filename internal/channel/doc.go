// Package channel provides the communication substrates used by the session
// runtimes. Substrate selection:
//
//	substrate   bounds     locking            producers  paper semantics modelled
//	---------   ------     -------            ---------  -----------------------
//	RingQueue   unbounded  lock-free SPSC     single     asynchronous queue (Rumpsteak) — default
//	Ring        k          lock-free SPSC     single     k-bounded queue (k-MC execution model)
//	Local       unbounded  none (one owner)   single     asynchronous queue, both ends on one goroutine
//	Queue       unbounded  mutex + cond       multi      asynchronous queue, MPMC baseline
//
// RingQueue and Ring exploit the session-network invariant that every
// ordered role pair has exactly one sender and one receiver: their hot path
// is a slot write plus one atomic publication — no locks and no steady-state
// allocation (see ring.go for the waiting and close protocol). A waiting
// ring party spins, then yields, then parks, since an in-memory peer
// usually moves within a yield; a ring built by NewParkingRing parks at
// once, since its peer is a socket pump (internal/netchan) waiting on I/O,
// and spinning for it only takes CPU from the sessions. Queue remains the
// mutex-based baseline for comparison (and for callers that need multiple
// concurrent senders). Local drops the SPSC publication too: it is the
// route of a session whose sender and receiver are stepped by the same
// goroutine at a time — the scheduler's pooled instances
// (session.Session.ForkLocal) — so its hot path is a plain slot write and
// counter bump, with no padding and no wake; only its close state is shared,
// so Close stays safe from any goroutine. With one owner no send can arrive
// while it waits, so its WaitRecv returns only on a close or at the
// deadline, and no role on a goroutine of its own may run over it. The
// synchronous baselines of the paper's evaluation (Sesh, MultiCrusty) are
// modelled in internal/baseline on native Go channels, not here.
//
// All substrates share drain-on-close semantics: after Close, buffered
// messages are still received in order, then receives return ErrClosed;
// sends on a closed substrate fail with ErrClosed.
//
// Every operation is a probe or a wait. The probes (TrySend mirroring
// TryRecv, and the batch probes TrySendN and TryRecvN, which move what fits
// or what is buffered) never block, and they are what the multi-session
// scheduler steps on: see DESIGN.md, "Non-blocking stepping and the
// scheduler", and internal/sched. The waits (WaitSend, WaitRecv) park until
// a retry is worth it, the substrate closes, or a deadline passes,
// returning ErrDeadline; a zero deadline waits without bound. Blocking is
// the two composed, written once per direction: Send and Recv probe, wait
// after a refusal, and repeat, and every substrate's Send and Recv methods
// are those calls with no deadline, so a blocking caller, a deadline-armed
// session endpoint and a stepped one meet the same code and the same
// faults: see DESIGN.md, "Why deadlines ride the Try* algebra". The
// substrate head-to-heads behind the table above are recorded in
// BENCH_channel.json (EXPERIMENTS.md).
package channel
