// Package session is the Go analogue of the Rumpsteak runtime (§2 of the
// paper): roles communicate asynchronously over per-ordered-pair unbounded
// FIFO channels; processes are goroutines driving one endpoint each.
//
// Because every ordered role pair has exactly one sender and one receiver,
// the default communication substrate is the lock-free SPSC ring of package
// channel (channel.RingQueue; channel.Ring for bounded networks): the
// send/receive hot path is a dense-table route lookup, a slot write and one
// atomic publication — no locks and no steady-state allocation. See Network
// for substrate selection and NewQueueNetwork for the mutex baseline.
//
// Where the Rust framework uses the type checker to force each process to
// conform to its verified FSM, Go has no affine types, so conformance is
// enforced by a runtime monitor instead (see DESIGN.md for why this preserves
// the paper's guarantees): every Send/Receive is checked against the
// endpoint's FSM and faults deterministically on any deviation. Linearity is
// enforced by TrySession, which consumes the endpoint for the duration of a
// session and verifies that the protocol ran to completion.
//
// Deadlock-freedom is established *before* execution by the three workflows
// of Fig. 1: TopDown (projection + asynchronous subtyping), BottomUp (k-MC
// over the endpoint FSMs) and Hybrid (projection + subtyping against
// developer-supplied FSMs).
//
// This package is Tier 1 (raw endpoints) and Tier 2 (the monitor) of the
// three API tiers catalogued in DESIGN.md; the sections "Tier 2: the
// runtime monitor" and "Non-blocking stepping and the scheduler" are the
// design arguments for the monitor's fault discipline and for the
// commit-on-success Try operations (TrySendMsg/TryRecvMsg, Stepper) that
// internal/sched schedules. A Stepper on a session endpoint is that
// endpoint's monitor: it walks the monitor's own machine over routes the
// session resolved once, rather than having the monitor re-check each
// action it takes.
package session
