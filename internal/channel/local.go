package channel

import (
	"sync/atomic"
	"time"
)

// localMinCap is the slot count of a Local's first buffer: a route of a
// scheduled session rarely holds more than a message or two, and the
// buffer doubles when a burst outgrows it (once per pooled instance, since
// Reset keeps it).
const localMinCap = 2

// Local is an unbounded FIFO with a single owner: one goroutine at a time
// both sends and receives on it. It is the route of a session whose every
// role is stepped by the same goroutine — the scheduler's pooled instances
// (internal/sched), which move between workers only whole and only through
// a lock (DESIGN.md, "Work stealing and the SPSC invariant"). With one
// owner nothing is published across cores, so Local has no padding, no
// atomic head or tail and no wake on send: a send is a slot write and a
// counter bump, and its buffer is one power-of-two slice that grows on
// demand and is kept by Reset.
//
// Only the close state is shared. Close and CloseWithError may come from
// any goroutine (a supervisor's abort), and they touch only the atomic
// flag and cause of the shared ringState and the receive gate, never the
// buffer or the counters.
//
// Because no send can arrive while the owner waits, an empty open Local is
// ready only when it closes: WaitRecv parks until a Close or the deadline
// releases it, and Recv, which like every substrate's is TryRecv followed
// by WaitRecv, blocks until the close. A Local therefore suits stepped
// runs, which only probe, and not a role on a goroutine of its own waiting
// on a peer on another.
type Local struct {
	buf        []Message // power-of-two length once grown; nil before the first send
	head, tail uint64    // messages consumed and sent; owner-only
	ringState
	gate atomic.Pointer[parkGate] // built by the first WaitRecv that parks
}

// NewLocal returns an empty single-owner queue. No buffer is allocated
// until the first send.
func NewLocal() *Local { return &Local{} }

// Len returns the number of buffered messages. Owner only.
func (q *Local) Len() int { return int(q.tail - q.head) }

// Send appends m. It never blocks.
func (q *Local) Send(m Message) error { return Send(q, m, time.Time{}) }

// grow doubles the buffer (or allocates the first one), moving the
// buffered messages to its front in order.
func (q *Local) grow() {
	n := 2 * len(q.buf)
	if n == 0 {
		n = localMinCap
	}
	buf := make([]Message, n)
	for i := q.head; i != q.tail; i++ {
		buf[i-q.head] = q.buf[i&uint64(len(q.buf)-1)]
	}
	q.tail -= q.head
	q.head = 0
	q.buf = buf
}

// TrySend appends m: like RingQueue's, it fails only when closed.
func (q *Local) TrySend(m Message) (bool, error) {
	if q.closed.Load() {
		return false, q.closeErr()
	}
	if q.tail-q.head == uint64(len(q.buf)) {
		q.grow()
	}
	q.buf[q.tail&uint64(len(q.buf)-1)] = m
	q.tail++
	return true, nil
}

// WaitSend returns at once: the queue never fills, so the sender only
// waits on a closed queue, which it reports.
func (q *Local) WaitSend(time.Time) error {
	if q.closed.Load() {
		return q.closeErr()
	}
	return nil
}

// TryRecv removes the oldest message if one is present; once the queue is
// closed and drained it reports the close error.
func (q *Local) TryRecv() (Message, bool, error) {
	if q.head == q.tail {
		if q.closed.Load() {
			return Message{}, false, q.closeErr()
		}
		return Message{}, false, nil
	}
	i := q.head & uint64(len(q.buf)-1)
	m := q.buf[i]
	q.buf[i] = Message{} // release the payload for GC
	q.head++
	return m, true, nil
}

// WaitRecv returns nil at once when a message is buffered. On an empty
// route it parks until the queue is closed (the close error) or deadline
// passes (ErrDeadline); a zero deadline waits for the close alone. Only the
// owner sends, so nothing else can make an empty route ready.
func (q *Local) WaitRecv(deadline time.Time) error {
	if q.head != q.tail {
		return nil
	}
	if q.closed.Load() {
		return q.closeErr()
	}
	g := q.gate.Load()
	if g == nil {
		g = new(parkGate)
		// Close loads the gate after storing the flag, and park checks the
		// flag after counting itself a waiter: one of the two sees the
		// other, so the close cannot slip between this store and the park.
		q.gate.Store(g)
	}
	if !g.park(q.closed.Load, deadline) {
		return ErrDeadline
	}
	return q.closeErr()
}

// Recv removes and returns the oldest message. On an empty route it blocks
// until the queue is closed and returns the close error.
func (q *Local) Recv() (Message, error) { return Recv(q, time.Time{}) }

// Close marks the queue closed and releases a parked WaitRecv. Buffered
// messages may still be received; subsequent sends fail. Safe from any
// goroutine.
func (q *Local) Close() {
	q.closed.Store(true)
	if g := q.gate.Load(); g != nil {
		g.wake()
	}
}

// CloseWithError closes the queue with a cause (first cause wins): the
// owner observes a *CloseError wrapping err after the drain.
func (q *Local) CloseWithError(err error) {
	q.setCause(err)
	q.Close()
}

// Reset restores the queue to its empty, open state: it clears the slots
// still buffered and rewinds to position 0, keeping the buffer.
// Quiescence contract as documented on Resetter.
func (q *Local) Reset() {
	if q.tail != 0 {
		mask := uint64(len(q.buf) - 1)
		for i := q.head; i != q.tail; i++ {
			q.buf[i&mask] = Message{}
		}
		q.head, q.tail = 0, 0
	}
	q.reopen()
}

var (
	_ Substrate = (*Local)(nil)
	_ Resetter  = (*Local)(nil)
)
