package channel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the lock-free substrates exploiting the structural
// fact that a session network gives every ordered role pair exactly one
// sender and one receiver: Ring (bounded) and RingQueue (unbounded) are
// single-producer single-consumer queues whose hot paths are one slot write
// and one atomic publication — no locks, no allocation.
//
// Waiting is spin-then-park: a short spin (skipped when GOMAXPROCS is 1,
// where spinning can only delay the peer), a few scheduler yields, then a
// futex-style park on a mutex+cond fallback gate. The gate is also what lets
// Close wake parties blocked on the fast path: closing sets the flag and
// broadcasts both gates, so a receiver blocked on an empty ring (or a sender
// blocked on a full one) fails promptly with ErrClosed instead of spinning
// or sleeping forever.
//
// Concurrency contract: at most one goroutine sends and at most one
// goroutine receives at any time (the sender and receiver may be different
// goroutines, and Close may be called by any goroutine). The session
// runtimes satisfy this by construction — an endpoint is owned by one
// process (linearity), and the (from, to) route is written only by from's
// process and read only by to's.

// The spin-then-park state machine below is deliberately written out in
// each wait site (Ring.waitNotFull, Ring.waitNotEmpty,
// RingQueue.waitNotEmpty) rather than factored into a helper taking a
// ready-predicate: a closure-based helper would allocate on every blocked
// wait (the predicates capture loop-local positions), breaking the
// zero-allocation contract of the hot path. Closures appear only inside
// park(), which is reached rarely. Keep the three copies — and the
// closed-then-reload drain check they share with TryRecv — in sync when
// changing the wait or close protocol.

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
}

// park sleeps until ready() holds. ready must be monotonic with respect to
// wake() calls (checked again under the lock, closing the lost-wakeup race:
// the waiter counter is incremented before the final check, and publishers
// load it after publishing).
func (g *parkGate) park(ready func() bool) {
	g.mu.Lock()
	if g.cond.L == nil {
		g.cond.L = &g.mu
	}
	g.waiters.Add(1)
	for !ready() {
		g.cond.Wait()
	}
	g.waiters.Add(-1)
	g.mu.Unlock()
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

	closed   atomic.Bool
	cause    atomic.Pointer[CloseError] // set before closed; first cause wins
	recvGate parkGate                   // receivers park here when the ring is empty
	sendGate parkGate                   // senders park here when the ring is full
}

// closeErr returns the error a closed ring reports. The cause pointer is
// CAS-installed before the closed flag is stored, so any party that observed
// closed == true also observes the cause.
func (r *Ring) closeErr() error {
	if c := r.cause.Load(); c != nil {
		return c
	}
	return ErrClosed
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

// Cap returns the logical capacity.
func (r *Ring) Cap() int { return int(r.capacity) }

// Len returns the number of buffered messages.
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Send appends m, blocking while the ring is full. It returns ErrClosed if
// the ring is (or becomes, while blocked) closed.
func (r *Ring) Send(m Message) error {
	if r.closed.Load() {
		return r.closeErr()
	}
	t := r.tail.Load()
	if t-r.cachedHead >= r.capacity {
		h, err := r.waitNotFull(t)
		if err != nil {
			return err
		}
		r.cachedHead = h
	}
	r.buf[t&r.mask] = m
	r.tail.Store(t + 1)
	r.recvGate.wake()
	return nil
}

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

// waitNotFull blocks until head has advanced enough that slot t is free,
// returning the observed head.
func (r *Ring) waitNotFull(t uint64) (uint64, error) {
	spins := 0
	for {
		h := r.head.Load()
		if t-h < r.capacity {
			return h, nil
		}
		if r.closed.Load() {
			return 0, r.closeErr()
		}
		spins++
		switch {
		case spins < hotSpins:
			// hot spin
		case spins < hotSpins+yieldSpins:
			runtime.Gosched()
		default:
			r.sendGate.park(func() bool {
				return t-r.head.Load() < r.capacity || r.closed.Load()
			})
			spins = 0
		}
	}
}

// Recv removes and returns the oldest message, blocking while empty. Once
// the ring is closed and drained it returns ErrClosed.
func (r *Ring) Recv() (Message, error) {
	h := r.head.Load()
	if r.cachedTail == h {
		t, err := r.waitNotEmpty(h)
		if err != nil {
			return Message{}, err
		}
		r.cachedTail = t
	}
	i := h & r.mask
	m := r.buf[i]
	r.buf[i] = Message{} // release the payload for GC
	r.head.Store(h + 1)
	r.sendGate.wake()
	return m, nil
}

// waitNotEmpty blocks until tail has advanced past h, returning the
// observed tail. Close wakes it: after observing the closed flag it reloads
// tail once more so every message published before the close is drained.
func (r *Ring) waitNotEmpty(h uint64) (uint64, error) {
	spins := 0
	for {
		t := r.tail.Load()
		if t != h {
			return t, nil
		}
		if r.closed.Load() {
			if t = r.tail.Load(); t != h {
				return t, nil
			}
			return 0, r.closeErr()
		}
		spins++
		switch {
		case spins < hotSpins:
			// hot spin
		case spins < hotSpins+yieldSpins:
			runtime.Gosched()
		default:
			r.recvGate.park(func() bool {
				return r.tail.Load() != h || r.closed.Load()
			})
			spins = 0
		}
	}
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

// SendN appends all of ms in order, blocking as needed, publishing each
// contiguous free run with a single atomic store. It returns the number of
// messages sent (len(ms), unless the ring closes mid-batch).
func (r *Ring) SendN(ms []Message) (int, error) {
	sent := 0
	for sent < len(ms) {
		if r.closed.Load() {
			return sent, r.closeErr()
		}
		t := r.tail.Load()
		if t-r.cachedHead >= r.capacity {
			h, err := r.waitNotFull(t)
			if err != nil {
				return sent, err
			}
			r.cachedHead = h
		}
		free := int(r.capacity - (t - r.cachedHead))
		if rem := len(ms) - sent; free > rem {
			free = rem
		}
		for i := 0; i < free; i++ {
			r.buf[(t+uint64(i))&r.mask] = ms[sent+i]
		}
		r.tail.Store(t + uint64(free))
		sent += free
		r.recvGate.wake()
	}
	return sent, nil
}

// RecvN fills dst with up to len(dst) messages, blocking only until at least
// one is available; the whole available run is consumed with a single atomic
// store. It returns the number received, or ErrClosed once closed and
// drained.
func (r *Ring) RecvN(dst []Message) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	h := r.head.Load()
	if r.cachedTail == h {
		t, err := r.waitNotEmpty(h)
		if err != nil {
			return 0, err
		}
		r.cachedTail = t
	}
	n := int(r.cachedTail - h)
	if n > len(dst) {
		n = len(dst)
	}
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
	if err != nil && !r.closed.Load() {
		r.cause.CompareAndSwap(nil, &CloseError{Cause: err})
	}
	r.Close()
}

// Reset restores the ring to its empty, open state, keeping the backing
// array. It drains through the normal consumer path (which zeroes slots),
// so the monotonic head/tail counters stay consistent. Quiescence contract
// as documented on Resetter.
func (r *Ring) Reset() bool {
	for {
		if _, ok, _ := r.TryRecv(); !ok {
			break
		}
	}
	reopen(&r.cause, &r.closed)
	return true
}

// reopen clears a drained substrate's close state for Reset. The cause is
// cleared before the flag so the "cause installed before the closed flag"
// publication invariant holds again for the next close; each store is made
// only when its field is set, so recycling a cleanly finished route costs
// two loads rather than two atomic exchanges.
func reopen(cause *atomic.Pointer[CloseError], closed *atomic.Bool) {
	if cause.Load() != nil {
		cause.Store(nil)
	}
	if closed.Load() {
		closed.Store(false)
	}
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
// compares with Queue, Bounded, Ring and Rendezvous.
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

	first    atomic.Pointer[ringSeg] // segment holding position 0: lazily allocated, or the one Reset rewound onto
	free     atomic.Pointer[ringSeg] // one-slot recycle cache, consumer → producer
	closed   atomic.Bool
	cause    atomic.Pointer[CloseError] // set before closed; first cause wins
	recvGate parkGate
}

// closeErr returns the error a closed queue reports; same publication
// argument as Ring.closeErr.
func (q *RingQueue) closeErr() error {
	if c := q.cause.Load(); c != nil {
		return c
	}
	return ErrClosed
}

// NewRingQueue returns an empty unbounded ring queue. No segment is
// allocated until the first send.
func NewRingQueue() *RingQueue { return &RingQueue{} }

// Len returns the number of buffered messages.
func (q *RingQueue) Len() int { return int(q.tail.Load() - q.head.Load()) }

// Send appends m. It never blocks.
func (q *RingQueue) Send(m Message) error {
	if q.closed.Load() {
		return q.closeErr()
	}
	t := q.tail.Load()
	i := t & ringSegMask
	if i == 0 {
		q.growTail(t)
	}
	q.tailSeg.buf[i] = m
	q.tail.Store(t + 1)
	q.recvGate.wake()
	return nil
}

// TrySend appends m. The queue is unbounded, so Send never blocks and
// TrySend only fails when closed — it exists so the unbounded default
// satisfies the same non-blocking algebra as the bounded substrates.
func (q *RingQueue) TrySend(m Message) (bool, error) {
	if err := q.Send(m); err != nil {
		return false, err
	}
	return true, nil
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

// SendN appends all of ms with one atomic publication per segment run.
func (q *RingQueue) SendN(ms []Message) (int, error) {
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
func (q *RingQueue) Recv() (Message, error) {
	h := q.head.Load()
	if q.cachedTail == h {
		t, err := q.waitNotEmpty(h)
		if err != nil {
			return Message{}, err
		}
		q.cachedTail = t
	}
	i := h & ringSegMask
	if i == 0 {
		q.advanceHead(h)
	}
	m := q.headSeg.buf[i]
	q.headSeg.buf[i] = Message{}
	q.head.Store(h + 1)
	return m, nil
}

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

func (q *RingQueue) waitNotEmpty(h uint64) (uint64, error) {
	spins := 0
	for {
		t := q.tail.Load()
		if t != h {
			return t, nil
		}
		if q.closed.Load() {
			if t = q.tail.Load(); t != h {
				return t, nil
			}
			return 0, q.closeErr()
		}
		spins++
		switch {
		case spins < hotSpins:
			// hot spin
		case spins < hotSpins+yieldSpins:
			runtime.Gosched()
		default:
			q.recvGate.park(func() bool {
				return q.tail.Load() != h || q.closed.Load()
			})
			spins = 0
		}
	}
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

// RecvN fills dst with up to len(dst) messages, blocking only until at
// least one is available, consuming whole segment runs per atomic store.
func (q *RingQueue) RecvN(dst []Message) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	h := q.head.Load()
	if q.cachedTail == h {
		t, err := q.waitNotEmpty(h)
		if err != nil {
			return 0, err
		}
		q.cachedTail = t
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
	if err != nil && !q.closed.Load() {
		q.cause.CompareAndSwap(nil, &CloseError{Cause: err})
	}
	q.Close()
}

// Reset restores the queue to its empty, open state, draining through the
// normal consumer path so segments are recycled into the free cache rather
// than leaked. The drained queue then rewinds to position 0 on the segment
// it ended in (head and tail share it once empty), so a recycled route
// writes the same slots every run instead of whichever slots it last
// touched up to a segment ago. Quiescence contract as documented on
// Resetter.
func (q *RingQueue) Reset() bool {
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
	reopen(&q.cause, &q.closed)
	return true
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
