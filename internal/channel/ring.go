package channel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the lock-free substrates exploiting the structural
// fact that a session network gives every ordered role pair exactly one
// sender and one receiver: Ring (bounded) and RingQueue (unbounded) are
// single-producer single-consumer queues whose hot paths are one slot write
// and one atomic publication — no locks, no allocation.
//
// Every wait is one helper, ringState.await, and only WaitSend and WaitRecv
// call it; the blocking Send and Recv are the package's probe-and-wait
// loops over TrySend/WaitSend and TryRecv/WaitRecv (channel.go), and the
// batch probes TrySendN/TryRecvN never wait. await blocks until a counter
// moves off a value — tail off head for a receiver, head off tail−k for a
// sender, since a ring is full exactly when head == tail−k. It has three tiers: a
// short spin (skipped when GOMAXPROCS is 1, where spinning can only delay
// the peer), a few scheduler yields, then a futex-style park on a
// mutex+cond gate. The first two pay off when the peer is a goroutine of
// this process moving messages in memory: it usually publishes within a
// yield, and parking at once slows the Session.Run streaming benchmark on
// rings by about a tenth (EXPERIMENTS.md). A ring built by NewParkingRing
// skips them and parks at once: its peer is a socket pump
// (internal/netchan) whose next move waits on a syscall, so spinning or
// yielding for it only takes the CPU the sessions need.
//
// The gate is also what lets Close wake parked parties: closing sets the
// flag and broadcasts both gates, so a receiver waiting on an empty ring
// (or a sender on a full one) fails promptly with ErrClosed instead of
// spinning or sleeping forever. A deadline bounds the gate's park with an
// alarm; a zero deadline parks without bound, which is all a blocking Send
// or Recv is, so a deadline-armed party parks exactly as a blocking one
// does and is woken by the same publication.
//
// Concurrency contract: at most one goroutine sends and at most one
// goroutine receives at any time (the sender and receiver may be different
// goroutines, and Close may be called by any goroutine). The session
// runtimes satisfy this by construction — an endpoint is owned by one
// process (linearity), and the (from, to) route is written only by from's
// process and read only by to's.

// hotSpins is the number of tight spins before yielding. On a single-P
// runtime a tight spin cannot observe progress (the peer is not running),
// so we go straight to yielding.
var hotSpins = func() int {
	if runtime.GOMAXPROCS(0) > 1 {
		return 128
	}
	return 0
}()

// yieldSpins is the number of runtime.Gosched yields before parking.
const yieldSpins = 16

// parkGate is the futex-style slow path: parties that exhausted their spin
// budget sleep on a cond var; publishers wake them only when the waiter
// counter says someone is actually parked, so the uncontended fast path
// costs a single atomic load.
type parkGate struct {
	mu      sync.Mutex
	cond    sync.Cond
	waiters atomic.Int32
	alarm   alarm // bounds deadline parks; guarded by mu
}

// park sleeps until ready() holds or, when deadline is non-zero, until the
// deadline passes; it reports whether ready() held. ready must be monotonic
// with respect to wake() calls (checked again under the lock, closing the
// lost-wakeup race: the waiter counter is incremented before the final
// check, and publishers load it after publishing).
func (g *parkGate) park(ready func() bool, deadline time.Time) bool {
	g.mu.Lock()
	if g.cond.L == nil {
		g.cond.L = &g.mu
	}
	g.waiters.Add(1)
	ok := true
	for ok && !ready() {
		ok = g.alarm.wait(&g.cond, deadline)
	}
	g.waiters.Add(-1)
	g.mu.Unlock()
	return ok
}

// alarm is the timed half of a cond wait: one timer that broadcasts the
// cond when the earliest deadline armed on it passes. A waiter re-arms it
// only when its deadline is earlier than the one already pending, so a run
// of parks under one deadline (every wait of a deadline-armed session) arms
// the timer once. Every firing clears the pending deadline and wakes all
// waiters, and each waiter re-arms before it sleeps again, so several
// waiters with different deadlines share one timer without missing theirs.
// A timer left pending after its waiter was released fires into an empty
// cond. The zero alarm is ready to use: its timer is built on the first
// timed wait, so a substrate that never waits under a deadline pays one
// pointer for it.
type alarm struct{ t *alarmTimer }

type alarmTimer struct {
	cond  *sync.Cond
	timer *time.Timer
	at    time.Time // deadline of the pending timer; zero when none is
}

// wait blocks on c (whose lock the caller holds) until a broadcast or, when
// deadline is non-zero, until the deadline passes. It reports false,
// without waiting, once the deadline has passed. Wakes may be spurious:
// callers re-check their condition in a loop. An alarm serves one cond.
func (a *alarm) wait(c *sync.Cond, deadline time.Time) bool {
	if deadline.IsZero() {
		c.Wait()
		return true
	}
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	switch t := a.t; {
	case t == nil:
		t = &alarmTimer{cond: c, at: deadline}
		t.timer = time.AfterFunc(d, t.fire)
		a.t = t
	case t.at.IsZero() || deadline.Before(t.at):
		t.at = deadline
		t.timer.Reset(d)
	}
	c.Wait()
	return true
}

func (t *alarmTimer) fire() {
	t.cond.L.Lock()
	t.at = time.Time{}
	t.cond.Broadcast()
	t.cond.L.Unlock()
}

// wake releases all parked parties. Cheap when nobody is parked.
func (g *parkGate) wake() {
	if g.waiters.Load() == 0 {
		return
	}
	g.mu.Lock()
	if g.cond.L != nil {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// ringState is the close state and wait policy Ring and RingQueue share.
type ringState struct {
	closed  atomic.Bool
	parkNow bool                       // skip the spin and yield tiers (NewParkingRing)
	cause   atomic.Pointer[CloseError] // set before closed; first cause wins
}

// closeErr returns the error a closed ring reports. The cause pointer is
// CAS-installed before the closed flag is stored, so any party that observed
// closed == true also observes the cause.
func (s *ringState) closeErr() error {
	if c := s.cause.Load(); c != nil {
		return c
	}
	return ErrClosed
}

// setCause records the cause of a CloseWithError (first cause wins); the
// caller then closes.
func (s *ringState) setCause(err error) {
	if err != nil && !s.closed.Load() {
		s.cause.CompareAndSwap(nil, &CloseError{Cause: err})
	}
}

// reopen clears a drained substrate's close state for Reset. The cause is
// cleared before the flag so the "cause installed before the closed flag"
// publication invariant holds again for the next close; each store is made
// only when its field is set, so recycling a cleanly finished route costs
// two loads rather than two atomic exchanges.
func (s *ringState) reopen() {
	if s.cause.Load() != nil {
		s.cause.Store(nil)
	}
	if s.closed.Load() {
		s.closed.Store(false)
	}
}

// await blocks until c no longer reads v and returns what it read; with a
// non-zero deadline it gives up with ErrDeadline once the deadline passes.
// Close wakes it: after observing the closed flag it reloads c once more,
// so every message published before the close is drained, with the same
// closed-then-reload check as TryRecv. It allocates nothing: the park
// closure captures only the arguments and does not escape.
func (s *ringState) await(c *atomic.Uint64, v uint64, g *parkGate, deadline time.Time) (uint64, error) {
	spins := 0
	if s.parkNow {
		spins = hotSpins + yieldSpins
	}
	for ; ; spins++ {
		if n := c.Load(); n != v {
			return n, nil
		}
		if s.closed.Load() {
			if n := c.Load(); n != v {
				return n, nil
			}
			return 0, s.closeErr()
		}
		switch {
		case spins < hotSpins:
			// hot spin
		case spins < hotSpins+yieldSpins:
			runtime.Gosched()
		case !g.park(func() bool { return c.Load() != v || s.closed.Load() }, deadline):
			return 0, ErrDeadline
		}
	}
}

// cacheLinePad separates producer- and consumer-owned fields so the two
// sides do not false-share a cache line.
type cacheLinePad [64]byte

// Ring is a bounded lock-free SPSC FIFO. Send blocks while the ring holds
// Cap messages (backpressure — the k-bounded execution model of k-MC, with
// the logical capacity enforced exactly even though the backing array is
// rounded up to a power of two); Recv blocks while empty. A Send racing
// Close may be lost; the session runtimes close routes only on teardown,
// after the sending process has finished or faulted.
type Ring struct {
	buf      []Message
	mask     uint64
	capacity uint64

	_          cacheLinePad
	tail       atomic.Uint64 // next slot to publish; written by the producer
	cachedHead uint64        // producer's snapshot of head
	_          cacheLinePad
	head       atomic.Uint64 // next slot to consume; written by the consumer
	cachedTail uint64        // consumer's snapshot of tail
	_          cacheLinePad

	ringState
	recvGate parkGate // receivers park here when the ring is empty
	sendGate parkGate // senders park here when the ring is full
}

// NewRing returns a ring with logical capacity k (k ≥ 1). The backing array
// is rounded up to a power of two for mask indexing, but Send still blocks
// at exactly k buffered messages, preserving k-bounded semantics.
func NewRing(k int) *Ring {
	if k < 1 {
		k = 1
	}
	n := 1
	for n < k {
		n <<= 1
	}
	return &Ring{buf: make([]Message, n), mask: uint64(n - 1), capacity: uint64(k)}
}

// NewParkingRing returns a ring like NewRing(k) whose waits park at once,
// without the spin and yield tiers: the ring for a socket pump, whose peer's
// next move waits on I/O (see the file comment).
func NewParkingRing(k int) *Ring {
	r := NewRing(k)
	r.parkNow = true
	return r
}

// Len returns the number of buffered messages.
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Send appends m, blocking while the ring is full. It returns ErrClosed if
// the ring is (or becomes, while blocked) closed.
func (r *Ring) Send(m Message) error { return Send(r, m, time.Time{}) }

// TrySend appends m if the ring has a free slot: (false, nil) while full —
// the sender re-probes after the receiver makes progress — and
// (false, ErrClosed) once closed. Same single-producer contract as Send.
func (r *Ring) TrySend(m Message) (bool, error) {
	if r.closed.Load() {
		return false, r.closeErr()
	}
	t := r.tail.Load()
	if t-r.cachedHead >= r.capacity {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= r.capacity {
			return false, nil
		}
	}
	r.buf[t&r.mask] = m
	r.tail.Store(t + 1)
	r.recvGate.wake()
	return true, nil
}

// WaitSend parks the sender until the ring has a free slot (nil), is closed
// (the close error), or deadline passes while it is full (ErrDeadline); a
// zero deadline waits without bound. It is the wait a deadline-armed
// session runs between TrySend probes, and it moves no message. Same
// single-producer contract as Send.
func (r *Ring) WaitSend(deadline time.Time) error {
	if r.closed.Load() {
		return r.closeErr()
	}
	t := r.tail.Load()
	if t-r.cachedHead < r.capacity {
		return nil
	}
	h, err := r.await(&r.head, t-r.capacity, &r.sendGate, deadline)
	if err != nil {
		return err
	}
	r.cachedHead = h
	return nil
}

// Recv removes and returns the oldest message, blocking while empty. Once
// the ring is closed and drained it returns ErrClosed.
func (r *Ring) Recv() (Message, error) { return Recv(r, time.Time{}) }

// WaitRecv parks the receiver until a message is buffered (nil), the ring
// is closed and drained (the close error), or deadline passes while it is
// empty (ErrDeadline); a zero deadline waits without bound. It consumes
// nothing. Same single-consumer contract as Recv.
func (r *Ring) WaitRecv(deadline time.Time) error {
	h := r.head.Load()
	if r.cachedTail != h {
		return nil
	}
	t, err := r.await(&r.tail, h, &r.recvGate, deadline)
	if err != nil {
		return err
	}
	r.cachedTail = t
	return nil
}

// TryRecv removes the oldest message if one is present.
func (r *Ring) TryRecv() (Message, bool, error) {
	h := r.head.Load()
	if r.cachedTail == h {
		r.cachedTail = r.tail.Load()
		if r.cachedTail == h {
			if !r.closed.Load() {
				return Message{}, false, nil
			}
			// Drain messages racing the close before reporting it.
			if r.cachedTail = r.tail.Load(); r.cachedTail == h {
				return Message{}, false, r.closeErr()
			}
		}
	}
	i := h & r.mask
	m := r.buf[i]
	r.buf[i] = Message{}
	r.head.Store(h + 1)
	r.sendGate.wake()
	return m, true, nil
}

// TrySendN appends the longest prefix of ms the ring has room for,
// publishing it with a single atomic store, and returns its length: 0 while
// the ring is full, and the close error once it is closed.
func (r *Ring) TrySendN(ms []Message) (int, error) {
	if r.closed.Load() {
		return 0, r.closeErr()
	}
	t := r.tail.Load()
	if t-r.cachedHead+uint64(len(ms)) > r.capacity {
		r.cachedHead = r.head.Load()
	}
	n := min(int(r.capacity-(t-r.cachedHead)), len(ms))
	if n == 0 {
		return 0, nil
	}
	for i := 0; i < n; i++ {
		r.buf[(t+uint64(i))&r.mask] = ms[i]
	}
	r.tail.Store(t + uint64(n))
	r.recvGate.wake()
	return n, nil
}

// TryRecvN fills dst with up to len(dst) buffered messages, consuming the
// whole run with a single atomic store, and returns how many: 0 while the
// ring is empty, and the close error once it is closed and drained.
func (r *Ring) TryRecvN(dst []Message) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	h := r.head.Load()
	if r.cachedTail == h {
		r.cachedTail = r.tail.Load()
		if r.cachedTail == h {
			if !r.closed.Load() {
				return 0, nil
			}
			if r.cachedTail = r.tail.Load(); r.cachedTail == h {
				return 0, r.closeErr()
			}
		}
	}
	n := min(int(r.cachedTail-h), len(dst))
	for i := 0; i < n; i++ {
		j := (h + uint64(i)) & r.mask
		dst[i] = r.buf[j]
		r.buf[j] = Message{}
	}
	r.head.Store(h + uint64(n))
	r.sendGate.wake()
	return n, nil
}

// Close marks the ring closed and wakes any blocked sender or receiver.
// Buffered messages may still be received; subsequent sends fail.
func (r *Ring) Close() {
	r.closed.Store(true)
	r.recvGate.wake()
	r.sendGate.wake()
}

// CloseWithError closes the ring with a cause (first cause wins): blocked
// and future parties — after the drain — observe a *CloseError wrapping err.
func (r *Ring) CloseWithError(err error) {
	r.setCause(err)
	r.Close()
}

// Reset restores the ring to its empty, open state, keeping the backing
// array. It drains through the normal consumer path (which zeroes slots),
// so the monotonic head/tail counters stay consistent. Quiescence contract
// as documented on Resetter.
func (r *Ring) Reset() {
	for {
		if _, ok, _ := r.TryRecv(); !ok {
			break
		}
	}
	r.reopen()
}

// ringSegShift sizes RingQueue segments: 64 messages (2 KiB) each, so the
// amortised allocation cost of an unbounded send is 1/64 segment — and zero
// in steady state, because drained segments are recycled through a one-slot
// free cache. Segments are also allocated lazily: an idle route (most routes
// of a wide network never carry traffic both ways) costs only the queue
// header.
const (
	ringSegShift = 6
	ringSegLen   = 1 << ringSegShift
	ringSegMask  = ringSegLen - 1
)

type ringSeg struct {
	buf  [ringSegLen]Message
	next atomic.Pointer[ringSeg]
}

// RingQueue is an unbounded lock-free SPSC FIFO: the paper's asynchronous
// queue semantics (Send never blocks) over chained ring segments. It is the
// default substrate of session networks; see the package comment for how it
// compares with Ring and Queue.
//
// Same concurrency contract as Ring: one sender, one receiver, Close from
// anywhere.
type RingQueue struct {
	_          cacheLinePad
	tail       atomic.Uint64 // total messages published
	tailSeg    *ringSeg      // producer-owned segment holding slot tail
	_          cacheLinePad
	head       atomic.Uint64 // total messages consumed
	cachedTail uint64        // consumer's snapshot of tail
	headSeg    *ringSeg      // consumer-owned segment holding slot head
	_          cacheLinePad

	first atomic.Pointer[ringSeg] // segment holding position 0: lazily allocated, or the one Reset rewound onto
	free  atomic.Pointer[ringSeg] // one-slot recycle cache, consumer → producer
	ringState
	recvGate parkGate
}

// NewRingQueue returns an empty unbounded ring queue. No segment is
// allocated until the first send.
func NewRingQueue() *RingQueue { return &RingQueue{} }

// Send appends m. It never blocks.
func (q *RingQueue) Send(m Message) error { return Send(q, m, time.Time{}) }

// TrySend appends m. The queue is unbounded, so TrySend only fails when
// closed, and Send never blocks.
func (q *RingQueue) TrySend(m Message) (bool, error) {
	if q.closed.Load() {
		return false, q.closeErr()
	}
	t := q.tail.Load()
	i := t & ringSegMask
	if i == 0 {
		q.growTail(t)
	}
	q.tailSeg.buf[i] = m
	q.tail.Store(t + 1)
	q.recvGate.wake()
	return true, nil
}

// WaitSend returns at once: the queue never fills, so the sender only
// waits on a closed queue, which it reports.
func (q *RingQueue) WaitSend(time.Time) error {
	if q.closed.Load() {
		return q.closeErr()
	}
	return nil
}

// growTail links a fresh (or recycled) segment after the full tail segment,
// or installs the first segment when t == 0: the one a Reset rewound onto,
// else a lazily allocated one.
func (q *RingQueue) growTail(t uint64) {
	if t == 0 {
		if seg := q.first.Load(); seg != nil {
			q.tailSeg = seg
			return
		}
	}
	seg := q.free.Swap(nil)
	if seg == nil {
		seg = &ringSeg{}
	}
	if t == 0 {
		q.tailSeg = seg
		q.first.Store(seg)
		return
	}
	q.tailSeg.next.Store(seg)
	q.tailSeg = seg
}

// TrySendN appends all of ms with one atomic publication per segment run:
// the queue never fills, so the run is sent whole unless the queue is
// closed, when none of it is.
func (q *RingQueue) TrySendN(ms []Message) (int, error) {
	if q.closed.Load() {
		return 0, q.closeErr()
	}
	sent := 0
	t := q.tail.Load()
	for sent < len(ms) {
		i := t & ringSegMask
		if i == 0 {
			q.growTail(t)
		}
		n := int(ringSegLen - i)
		if rem := len(ms) - sent; n > rem {
			n = rem
		}
		copy(q.tailSeg.buf[i:int(i)+n], ms[sent:sent+n])
		t += uint64(n)
		sent += n
		q.tail.Store(t)
		q.recvGate.wake()
	}
	return sent, nil
}

// Recv removes and returns the oldest message, blocking while empty.
func (q *RingQueue) Recv() (Message, error) { return Recv(q, time.Time{}) }

// advanceHead moves the consumer onto the next segment and recycles the
// drained one; at h == 0 it instead installs the producer's lazily
// allocated first segment. The pointers are always non-nil here: the
// producer links (or installs) the segment before publishing any slot in
// it, and the caller observed tail > head.
func (q *RingQueue) advanceHead(h uint64) {
	if h == 0 {
		q.headSeg = q.first.Load()
		return
	}
	old := q.headSeg
	q.headSeg = old.next.Load()
	old.next.Store(nil)
	q.free.Store(old)
}

// WaitRecv parks the receiver until a message is buffered, the queue is
// closed and drained, or deadline passes: Ring.WaitRecv's contract.
func (q *RingQueue) WaitRecv(deadline time.Time) error {
	h := q.head.Load()
	if q.cachedTail != h {
		return nil
	}
	t, err := q.await(&q.tail, h, &q.recvGate, deadline)
	if err != nil {
		return err
	}
	q.cachedTail = t
	return nil
}

// TryRecv removes the oldest message if one is present.
func (q *RingQueue) TryRecv() (Message, bool, error) {
	h := q.head.Load()
	if q.cachedTail == h {
		q.cachedTail = q.tail.Load()
		if q.cachedTail == h {
			if !q.closed.Load() {
				return Message{}, false, nil
			}
			if q.cachedTail = q.tail.Load(); q.cachedTail == h {
				return Message{}, false, q.closeErr()
			}
		}
	}
	i := h & ringSegMask
	if i == 0 {
		q.advanceHead(h)
	}
	m := q.headSeg.buf[i]
	q.headSeg.buf[i] = Message{}
	q.head.Store(h + 1)
	return m, true, nil
}

// TryRecvN fills dst with up to len(dst) buffered messages, consuming
// whole segment runs per atomic store, and returns how many: 0 while the
// queue is empty, and the close error once it is closed and drained.
func (q *RingQueue) TryRecvN(dst []Message) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	h := q.head.Load()
	if q.cachedTail == h {
		q.cachedTail = q.tail.Load()
		if q.cachedTail == h {
			if !q.closed.Load() {
				return 0, nil
			}
			if q.cachedTail = q.tail.Load(); q.cachedTail == h {
				return 0, q.closeErr()
			}
		}
	}
	got := 0
	for got < len(dst) && q.cachedTail != h {
		i := h & ringSegMask
		if i == 0 {
			q.advanceHead(h)
		}
		n := int(ringSegLen - i)
		if avail := int(q.cachedTail - h); n > avail {
			n = avail
		}
		if rem := len(dst) - got; n > rem {
			n = rem
		}
		copy(dst[got:got+n], q.headSeg.buf[i:int(i)+n])
		for j := 0; j < n; j++ {
			q.headSeg.buf[int(i)+j] = Message{}
		}
		h += uint64(n)
		got += n
		q.head.Store(h)
	}
	return got, nil
}

// Close marks the queue closed and wakes any blocked receiver. Buffered
// messages may still be received; subsequent sends fail.
func (q *RingQueue) Close() {
	q.closed.Store(true)
	q.recvGate.wake()
}

// CloseWithError closes the queue with a cause (first cause wins): blocked
// and future parties — after the drain — observe a *CloseError wrapping err.
func (q *RingQueue) CloseWithError(err error) {
	q.setCause(err)
	q.Close()
}

// Reset restores the queue to its empty, open state, draining through the
// normal consumer path so segments are recycled into the free cache rather
// than leaked. The drained queue then rewinds to position 0 on the segment
// it ended in (head and tail share it once empty), so a recycled route
// writes the same slots every run instead of whichever slots it last
// touched up to a segment ago. Quiescence contract as documented on
// Resetter.
func (q *RingQueue) Reset() {
	for {
		if _, ok, _ := q.TryRecv(); !ok {
			break
		}
	}
	if q.tail.Load() != 0 {
		q.first.Store(q.headSeg)
		q.head.Store(0)
		q.tail.Store(0)
		q.cachedTail = 0
	}
	q.reopen()
}

var (
	_ Sender        = (*Ring)(nil)
	_ Receiver      = (*Ring)(nil)
	_ BatchSender   = (*Ring)(nil)
	_ BatchReceiver = (*Ring)(nil)
	_ Sender        = (*RingQueue)(nil)
	_ Receiver      = (*RingQueue)(nil)
	_ BatchSender   = (*RingQueue)(nil)
	_ BatchReceiver = (*RingQueue)(nil)
	_ Substrate     = (*Ring)(nil)
	_ Substrate     = (*RingQueue)(nil)
	_ Resetter      = (*Ring)(nil)
	_ Resetter      = (*RingQueue)(nil)
)
