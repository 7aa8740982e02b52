package channel

import (
	"errors"
	"sync/atomic"
	"time"
)

// This file implements Faulty, the fault-injection wrapper substrate behind
// internal/chaos: it surrounds any inner Substrate and perturbs its operations
// on a deterministic, seed-derived schedule. The injectable faults are the
// ways a real peer misbehaves short of corrupting data — it exerts
// backpressure it shouldn't (would-block storms: Try operations spuriously
// report no progress), it wedges (a stall: every probe is refused until the
// route closes), and it dies (early close-with-cause: the route is torn down
// mid-protocol with ErrInjected). A slow peer needs no fault of its own: a
// refusal is exactly what a slow peer looks like to a probe. Payloads are
// never dropped, duplicated or reordered: every fault is a refusal or a
// teardown, so the session monitor's safety argument is untouched and any
// observed completion is still a correct run.
//
// The faults live in the probes and waits alone. Send and Recv are, as on
// every substrate, the package's probe-and-wait loops, so a blocking caller
// meets the same refusals, stalls and closes as a stepped one.
//
// Every fault decision is keyed to a per-side MESSAGE ORDINAL — the k-th
// message sent (or received) through the route — never to a probe count.
// Over an in-memory ring a Try probe almost always succeeds, but over a
// substrate with real latency (internal/netchan) the same message may be
// probed many times before it lands, and the number of retries is timing
// noise. Rolling a PRNG per probe would let that noise drift the schedule;
// rolling a pure hash of (seed, side, k) keeps the schedule a function of
// the protocol's message sequence alone, so a chaos seed replays exactly on
// any substrate.

// ErrInjected is the default cause of a fault-injected close: observers see a
// *CloseError wrapping it, so errors.Is(err, ErrInjected) identifies a chaos
// teardown while errors.Is(err, ErrClosed) keeps the ordinary close contract.
var ErrInjected = errors.New("channel: injected fault")

// FaultPlan is one deterministic fault schedule. The zero value injects
// nothing; all fault decisions are pure functions of (Seed, side, message
// ordinal), so a (plan, message sequence) pair always produces the same
// faults — a failing chaos schedule replays exactly, regardless of how many
// times a would-block probe was retried along the way.
type FaultPlan struct {
	// Seed keys the per-message fault rolls. Two plans with the same knobs
	// but different seeds fault at different messages.
	Seed uint64
	// WouldBlockP is the per-mille probability that a message's FIRST
	// TrySend/TryRecv probe spuriously reports no progress (a backpressure
	// storm). The refusal is charged to the message ordinal, not the probe:
	// retries of the same message pass through to the inner substrate, so a
	// faulted message costs exactly one spurious refusal.
	WouldBlockP int
	// StallAfter, when positive, stalls the route at that effective
	// operation (messages moved, both sides): the first StallAfter-1
	// operations complete, then every Try operation reports no progress
	// until the route is closed, and a blocking Send or Recv waits for that
	// close. This is the "peer wedged" fault — only a deadline (or an abort
	// elsewhere in the session) gets a party out.
	StallAfter int
	// CloseAfter, when positive, closes the route with CloseCause once that
	// many effective operations have completed (a crashed peer).
	CloseAfter int
	// CloseCause is the cause used for the injected close; ErrInjected
	// when nil.
	CloseCause error
}

// Faulty wraps an inner substrate with a FaultPlan. It satisfies the same
// Substrate contract (and concurrency contract — the fault state is split
// into producer-owned, consumer-owned and atomic shared fields exactly like
// the rings), so a session network built over Faulty routes behaves like the
// inner substrate plus scheduled misbehaviour.
//
// Faulty deliberately does not implement BatchSender/BatchReceiver: batch
// operations decay to per-message calls at the session layer, so every
// message is a fault opportunity.
//
// The waits follow the faults: after a spurious refusal WaitSend/WaitRecv
// return at once (the retry passes through), on a stalled route they park
// until the route is closed or the deadline passes (no probe can succeed
// before then, whatever the inner substrate holds), and otherwise they wait
// on the inner substrate.
type Faulty struct {
	inner Substrate
	plan  FaultPlan

	ops    atomic.Int64 // effective operations completed, both sides
	closed atomic.Bool  // a close passed through (or was injected) — stop stalling
	stall  parkGate     // waiters on a stalled route park here until closed

	// Producer-owned ordinal state: sendK counts messages accepted by the
	// inner substrate; sendRefused marks that message sendK+1 already paid
	// its spurious refusal; sendRetry marks that the last TrySend was that
	// refusal, so the next one passes through.
	sendK       uint64
	sendRefused bool
	sendRetry   bool
	// Consumer-owned ordinal state, same shape.
	recvK       uint64
	recvRefused bool
	recvRetry   bool
}

// NewFaulty wraps inner with the given fault plan.
//
//repro:keep the fault-injection substrate the chaos soak and the channel, session and sched fault tests build
func NewFaulty(inner Substrate, plan FaultPlan) *Faulty {
	return &Faulty{inner: inner, plan: plan}
}

// splitmix64 is the tiny deterministic PRNG behind the fault rolls.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Side salts for the ordinal hash: each side draws from an independent
// stream over the message ordinals.
const (
	saltSendBlock uint64 = 0xa5a5a5a5a5a5a5a5
	saltRecvBlock uint64 = 0x5a5a5a5a5a5a5a5a
)

// ordinalRoll reports whether the fault with per-mille probability p fires
// for message ordinal k. The roll is a stateless hash, a pure function of
// (seed, salt, k), independent of how many probes preceded it.
func ordinalRoll(seed, salt, k uint64, p int) bool {
	if p <= 0 {
		return false
	}
	st := seed ^ salt ^ k*0x9e3779b97f4a7c15
	return splitmix64(&st)%1000 < uint64(p)
}

// effective counts one completed operation and fires the CloseAfter trigger
// when its threshold is reached.
func (f *Faulty) effective() {
	n := f.ops.Add(1)
	if f.plan.CloseAfter > 0 && n == int64(f.plan.CloseAfter) {
		cause := f.plan.CloseCause
		if cause == nil {
			cause = ErrInjected
		}
		f.inner.CloseWithError(cause)
		f.shut()
	}
}

// shut marks the route closed — faults stop masking the closure — and
// releases the waiters parked on a stall. The inner substrate is closed
// first, so a released waiter finds it closed.
func (f *Faulty) shut() {
	f.closed.Store(true)
	f.stall.wake()
}

// waitStall parks a waiter on a stalled route until the route is closed or
// deadline passes: a stall refuses every probe until the close, so waking
// on the inner substrate's readiness would only spin.
func (f *Faulty) waitStall(deadline time.Time) error {
	if !f.stalled() || f.closed.Load() {
		return nil
	}
	if !f.stall.park(f.closed.Load, deadline) {
		return ErrDeadline
	}
	return nil
}

// stalled reports whether the StallAfter threshold has been crossed: the
// operation after the first StallAfter-1 completed ones is the one stalled.
func (f *Faulty) stalled() bool {
	return f.plan.StallAfter > 0 && f.ops.Load() >= int64(f.plan.StallAfter)-1
}

// Send is TrySend, and WaitSend between refusals: the faults apply to it.
func (f *Faulty) Send(m Message) error { return Send(f, m, time.Time{}) }

// TrySend forwards to the inner substrate unless a stall fault holds or the
// message's would-block fault fires, in which case it reports (false, nil)
// with no effect. The would-block refusal is charged once per message:
// retries pass through. Once the route is closed, faults stop masking the
// closure: the caller must observe the teardown cause, not an eternal storm.
func (f *Faulty) TrySend(m Message) (bool, error) {
	f.sendRetry = false
	if f.stalled() && !f.closed.Load() {
		return false, nil
	}
	k := f.sendK + 1
	if !f.sendRefused && !f.closed.Load() &&
		ordinalRoll(f.plan.Seed, saltSendBlock, k, f.plan.WouldBlockP) {
		f.sendRefused, f.sendRetry = true, true
		return false, nil
	}
	ok, err := f.inner.TrySend(m)
	if ok {
		f.sendK = k
		f.sendRefused = false
		f.effective()
	}
	return ok, err
}

// Recv is TryRecv, and WaitRecv between refusals: the faults apply to it.
func (f *Faulty) Recv() (Message, error) { return Recv(f, time.Time{}) }

// TryRecv forwards to the inner substrate unless a stall fault holds or the
// message's would-block fault fires, in which case it reports no message
// with no effect; refusals are charged per message, exactly as in TrySend.
func (f *Faulty) TryRecv() (Message, bool, error) {
	f.recvRetry = false
	if f.stalled() && !f.closed.Load() {
		return Message{}, false, nil
	}
	k := f.recvK + 1
	if !f.recvRefused && !f.closed.Load() &&
		ordinalRoll(f.plan.Seed, saltRecvBlock, k, f.plan.WouldBlockP) {
		f.recvRefused, f.recvRetry = true, true
		return Message{}, false, nil
	}
	m, ok, err := f.inner.TryRecv()
	if ok {
		f.recvK = k
		f.recvRefused = false
		f.effective()
	}
	return m, ok, err
}

// WaitSend returns at once after a spurious refusal, parks on a stall until
// close or deadline, and otherwise waits on the inner substrate.
func (f *Faulty) WaitSend(deadline time.Time) error {
	if f.sendRetry {
		return nil
	}
	if err := f.waitStall(deadline); err != nil {
		return err
	}
	return f.inner.WaitSend(deadline)
}

// WaitRecv is WaitSend for the receiving side.
func (f *Faulty) WaitRecv(deadline time.Time) error {
	if f.recvRetry {
		return nil
	}
	if err := f.waitStall(deadline); err != nil {
		return err
	}
	return f.inner.WaitRecv(deadline)
}

// Close forwards the teardown and releases any stall.
func (f *Faulty) Close() {
	f.inner.Close()
	f.shut()
}

// CloseWithError forwards the cause-carrying teardown and releases any stall.
func (f *Faulty) CloseWithError(err error) {
	f.inner.CloseWithError(err)
	f.shut()
}

// SetNotify forwards a readiness hook to the inner substrate when it has
// one (a netchan route). Faults need no hook of their own: a spurious
// refusal passes on the retry, and a stall ends only with a close.
func (f *Faulty) SetNotify(fn func()) {
	if n, ok := f.inner.(interface{ SetNotify(func()) }); ok {
		n.SetNotify(fn)
	}
}

var _ Substrate = (*Faulty)(nil)
