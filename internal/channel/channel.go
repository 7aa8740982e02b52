package channel

import (
	"errors"
	"sync"
	"time"

	"repro/internal/types"
)

// Message is one labelled payload in transit.
type Message struct {
	Label types.Label
	Value any
}

// ErrClosed is returned by receives once a channel is closed and drained, and
// by sends on a closed channel.
var ErrClosed = errors.New("channel: closed")

// ErrDeadline is returned by WaitSend and WaitRecv when their deadline
// passes before the route became ready. The route is unchanged: nothing was
// sent or received.
var ErrDeadline = errors.New("channel: deadline exceeded")

// CloseError is the error observed on a substrate that was torn down with
// CloseWithError: it carries the cause the closer supplied. It matches both
// halves of the failure contract — errors.Is(err, ErrClosed) holds (so code
// written against the plain Close contract keeps working), and the cause is
// reachable with errors.Is/errors.As through Unwrap (so a party blocked in
// Recv learns *why* the session died, not just that it did).
type CloseError struct {
	Cause error
}

func (e *CloseError) Error() string { return "channel: closed: " + e.Cause.Error() }

// Unwrap exposes the close cause to errors.Is/errors.As.
func (e *CloseError) Unwrap() error { return e.Cause }

// Is reports true for ErrClosed: a cause-carrying close is still a close.
func (e *CloseError) Is(target error) bool { return target == ErrClosed }

// Substrate is the full per-route channel contract the session runtimes
// build networks from: both directions of the non-blocking algebra, the
// deadline-bounded wait between its probes, and teardown with and without a
// cause. All four substrates (Queue, Ring, RingQueue, Local) and the Faulty
// wrapper implement it. Local meets it for one owner only: its WaitRecv on
// an empty route returns only on a close or at the deadline.
type Substrate interface {
	Sender
	Receiver
	// Close tears the substrate down; blocked and future parties observe
	// ErrClosed (after draining any buffered messages).
	Close()
	// CloseWithError is Close carrying a cause: blocked and future parties
	// observe a *CloseError wrapping err instead of the bare ErrClosed.
	// A nil err is equivalent to Close; the first cause wins — later
	// closes (with or without cause) do not overwrite it.
	CloseWithError(err error)
}

// Sender is the output half of a channel.
type Sender interface {
	Send(Message) error
	// TrySend returns immediately; ok reports whether the message was
	// accepted. The contract mirrors Receiver.TryRecv: (true, nil) on
	// success, (false, nil) when the substrate is full (retry after the
	// peer makes progress), (false, ErrClosed) once closed. Substrates
	// that never fill (Queue, RingQueue) never report (false, nil);
	// their TrySend fails only with ErrClosed.
	TrySend(Message) (ok bool, err error)
	// WaitSend parks until a TrySend is worth retrying — the substrate
	// has room, or a refusal it injected has passed — returning nil; until
	// the substrate is closed, returning the close error; or until deadline
	// passes, returning ErrDeadline. A zero deadline waits without bound.
	// It sends nothing, and a would-block TrySend followed by WaitSend is
	// how a deadline-armed sender waits: parked on the substrate, woken by
	// the receiver's progress, not polling.
	WaitSend(deadline time.Time) error
}

// Receiver is the input half of a channel.
type Receiver interface {
	// Recv blocks until a message is available or the channel is closed and
	// drained.
	Recv() (Message, error)
	// TryRecv returns immediately; ok reports whether a message was taken.
	TryRecv() (msg Message, ok bool, err error)
	// WaitRecv is WaitSend's receiving twin: it parks until a TryRecv is
	// worth retrying (a message is buffered, or an injected refusal has
	// passed), until the substrate is closed and drained (the close error),
	// or until deadline passes (ErrDeadline). It consumes nothing.
	WaitRecv(deadline time.Time) error
}

// Resetter is implemented by substrates that can be returned to their
// fresh-channel state in place, so a session network can be recycled
// instead of reallocated (the scheduler's pooled Fork path). Reset may
// only be called at a quiescent point: no concurrent Send/Recv/Close on
// the substrate — the session runtimes guarantee this by resetting only
// networks whose every endpoint has finished or been released.
//
// Queue, Ring, RingQueue and Local are Resetters. The Faulty wrapper and
// network-backed routes are not: they cannot be reopened once closed, and
// a network containing one simply falls back to a fresh allocation.
type Resetter interface {
	Reset()
}

// BatchSender is implemented by substrates that can publish a run of
// messages with amortised synchronisation. SendN sends all of ms in order
// and returns how many were sent (short only on ErrClosed).
type BatchSender interface {
	SendN(ms []Message) (int, error)
}

// BatchReceiver is implemented by substrates that can consume a run of
// messages with amortised synchronisation. RecvN blocks until at least one
// message is available, fills dst with up to len(dst) messages, and returns
// how many.
type BatchReceiver interface {
	RecvN(dst []Message) (int, error)
}

// Queue is an unbounded FIFO. Send never blocks; Recv blocks until a message
// arrives. The zero value is ready to use.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	alarm  alarm // bounds WaitRecv
	buf    []Message
	head   int
	closed bool
	cause  *CloseError
}

// closeErr returns the error a closed queue reports: the cause when one was
// supplied, the bare ErrClosed otherwise. Assumes q.mu held.
func (q *Queue) closeErr() error {
	if q.cause != nil {
		return q.cause
	}
	return ErrClosed
}

// NewQueue returns an empty unbounded queue.
func NewQueue() *Queue { return &Queue{} }

func (q *Queue) lockedCond() *sync.Cond {
	if q.cond == nil {
		q.cond = sync.NewCond(&q.mu)
	}
	return q.cond
}

// Send appends m. It never blocks. It broadcasts rather than signals: a
// WaitRecv caller may be among the woken, and it does not take the message.
func (q *Queue) Send(m Message) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return q.closeErr()
	}
	q.buf = append(q.buf, m)
	q.lockedCond().Broadcast()
	return nil
}

// Recv removes and returns the oldest message, blocking while empty.
func (q *Queue) Recv() (Message, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.buf) && !q.closed {
		q.lockedCond().Wait()
	}
	if q.head >= len(q.buf) {
		return Message{}, q.closeErr()
	}
	return q.pop(), nil
}

// TrySend appends m. The queue is unbounded, so it only fails when closed.
func (q *Queue) TrySend(m Message) (bool, error) {
	if err := q.Send(m); err != nil {
		return false, err
	}
	return true, nil
}

// WaitSend returns at once: the queue never fills, so the sender only
// waits on a closed queue, which it reports.
func (q *Queue) WaitSend(time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return q.closeErr()
	}
	return nil
}

// WaitRecv parks until a message is buffered (nil), the queue is closed and
// drained (the close error), or deadline passes (ErrDeadline).
func (q *Queue) WaitRecv(deadline time.Time) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.buf) && !q.closed {
		if !q.alarm.wait(q.lockedCond(), deadline) {
			return ErrDeadline
		}
	}
	if q.head >= len(q.buf) {
		return q.closeErr()
	}
	return nil
}

// TryRecv removes the oldest message if one is present.
func (q *Queue) TryRecv() (Message, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head < len(q.buf) {
		return q.pop(), true, nil
	}
	if q.closed {
		return Message{}, false, q.closeErr()
	}
	return Message{}, false, nil
}

// pop assumes q.mu held and at least one message buffered.
func (q *Queue) pop() Message {
	m := q.buf[q.head]
	q.buf[q.head] = Message{} // release the payload for GC
	q.head++
	if q.head == len(q.buf) {
		// Reset to reuse the backing array instead of growing forever.
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

// Len returns the number of buffered messages.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf) - q.head
}

// Close marks the queue closed. Buffered messages may still be received;
// subsequent sends fail.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.lockedCond().Broadcast()
}

// CloseWithError closes the queue with a cause (first cause wins).
func (q *Queue) CloseWithError(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err != nil && q.cause == nil && !q.closed {
		q.cause = &CloseError{Cause: err}
	}
	q.closed = true
	q.lockedCond().Broadcast()
}

// Reset restores the queue to its empty, open state, keeping the backing
// array. Quiescence contract as documented on Resetter.
func (q *Queue) Reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := q.head; i < len(q.buf); i++ {
		q.buf[i] = Message{} // release payloads for GC
	}
	q.buf = q.buf[:0]
	q.head = 0
	q.closed = false
	q.cause = nil
}

var (
	_ Sender    = (*Queue)(nil)
	_ Receiver  = (*Queue)(nil)
	_ Substrate = (*Queue)(nil)
	_ Resetter  = (*Queue)(nil)
)
