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
// deadline-bounded wait between its probes, the blocking Send and Recv
// composed of the two (the package functions Send and Recv), and teardown
// with and without a cause. All four substrates (Queue, Ring, RingQueue,
// Local) and the Faulty wrapper implement it. Local meets it for one owner only: its WaitRecv on
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
	// Send blocks until the message is accepted or the substrate is
	// closed. Every substrate's Send is the package function Send with no
	// deadline: TrySend, and WaitSend between refused probes.
	Send(Message) error
	// TrySend returns immediately; ok reports whether the message was
	// accepted. The contract mirrors Receiver.TryRecv: (true, nil) on
	// success, (false, nil) when the substrate is full (retry after the
	// peer makes progress), (false, ErrClosed) once closed. Substrates
	// that never fill (Queue, RingQueue, Local) never report (false, nil);
	// their TrySend fails only with ErrClosed.
	TrySend(Message) (ok bool, err error)
	// WaitSend parks until a TrySend is worth retrying — the substrate
	// has room, or a refusal it injected has passed — returning nil; until
	// the substrate is closed, returning the close error; or until deadline
	// passes, returning ErrDeadline. A zero deadline waits without bound.
	// It sends nothing, and a would-block TrySend followed by WaitSend is
	// how every blocking sender waits: parked on the substrate, woken by
	// the receiver's progress, not polling.
	WaitSend(deadline time.Time) error
}

// Receiver is the input half of a channel.
type Receiver interface {
	// Recv blocks until a message is available or the channel is closed and
	// drained. Every substrate's Recv is the package function Recv with no
	// deadline: TryRecv, and WaitRecv between empty probes.
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
// messages with amortised synchronisation. TrySendN is TrySend for a run:
// it never blocks, sends the longest prefix of ms that fits, in order, with
// one publication, and returns its length — 0 with a nil error while the
// substrate is full, and the close error once it is closed. A caller that
// must move the whole run waits with WaitSend between probes.
type BatchSender interface {
	TrySendN(ms []Message) (int, error)
}

// BatchReceiver is implemented by substrates that can consume a run of
// messages with amortised synchronisation. TryRecvN is TryRecv for a run:
// it never blocks, fills dst with up to len(dst) buffered messages in one
// consumption, and returns how many — 0 with a nil error while the
// substrate is empty, and the close error once it is closed and drained. A
// caller that must wait for a message does so with WaitRecv.
type BatchReceiver interface {
	TryRecvN(dst []Message) (int, error)
}

// Send is the one blocking send: it probes s with TrySend and, while the
// probe is refused, parks in WaitSend until a retry is worth it, returning
// nil once the message is accepted; the close error once s is closed; or
// ErrDeadline once deadline passes, with nothing sent. A zero deadline
// waits without bound. Every substrate's Send method is this call with a
// zero deadline, so blocking and non-blocking callers meet the same code
// and the same faults.
func Send(s Sender, m Message, deadline time.Time) error {
	for {
		if ok, err := s.TrySend(m); ok || err != nil {
			return err
		}
		if err := s.WaitSend(deadline); err != nil {
			return err
		}
	}
}

// Recv is Send's receiving twin: TryRecv, and WaitRecv between empty
// probes. It returns the next message; the close error once r is closed
// and drained; or ErrDeadline once deadline passes, with nothing consumed.
func Recv(r Receiver, deadline time.Time) (Message, error) {
	for {
		if m, ok, err := r.TryRecv(); ok || err != nil {
			return m, err
		}
		if err := r.WaitRecv(deadline); err != nil {
			return Message{}, err
		}
	}
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

// Send appends m. It never blocks.
func (q *Queue) Send(m Message) error { return Send(q, m, time.Time{}) }

// Recv removes and returns the oldest message, blocking while empty.
func (q *Queue) Recv() (Message, error) { return Recv(q, time.Time{}) }

// TrySend appends m. The queue is unbounded, so it only fails when closed.
// It broadcasts rather than signals: several WaitRecv callers may be parked,
// and a wait takes no message.
func (q *Queue) TrySend(m Message) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false, q.closeErr()
	}
	q.buf = append(q.buf, m)
	q.lockedCond().Broadcast()
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
