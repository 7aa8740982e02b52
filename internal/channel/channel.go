package channel

import (
	"errors"
	"sync"
	"sync/atomic"
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
// cause. All five substrates (Queue, Bounded, Rendezvous, Ring, RingQueue)
// and the Faulty wrapper implement it.
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
// Reset reports whether the substrate is reusable. A false return is not
// an error: some substrates (Rendezvous over a native chan, the Faulty
// wrapper, network-backed routes) cannot be reopened once closed, and a
// network containing one simply falls back to a fresh allocation.
type Resetter interface {
	Reset() bool
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
func (q *Queue) Reset() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := q.head; i < len(q.buf); i++ {
		q.buf[i] = Message{} // release payloads for GC
	}
	q.buf = q.buf[:0]
	q.head = 0
	q.closed = false
	q.cause = nil
	return true
}

// Bounded is a FIFO with a fixed capacity: sends block while full. It models
// the k-bounded queues of the k-MC semantics (MPMC mutex baseline; the
// lock-free SPSC equivalent is Ring).
//
// Close follows the same drain semantics as Queue: a closed-but-nonempty
// queue keeps delivering buffered messages in order before receives report
// ErrClosed, sends on a closed queue return ErrClosed (they do not panic),
// and senders blocked on a full queue are woken by Close with ErrClosed.
// Progress broadcasts its cond rather than signalling it, because a
// WaitSend or WaitRecv caller may be the one woken and it moves nothing.
type Bounded struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	buf      []Message // ring of len(buf) == capacity
	head     int
	n        int
	closed   bool
	cause    *CloseError

	fullAlarm, emptyAlarm alarm // bound WaitSend and WaitRecv
}

// closeErr returns the error a closed queue reports; assumes b.mu held.
func (b *Bounded) closeErr() error {
	if b.cause != nil {
		return b.cause
	}
	return ErrClosed
}

// NewBounded returns a queue with capacity k (k ≥ 1).
func NewBounded(k int) *Bounded {
	if k < 1 {
		k = 1
	}
	b := &Bounded{buf: make([]Message, k)}
	b.notFull = sync.NewCond(&b.mu)
	b.notEmpty = sync.NewCond(&b.mu)
	return b
}

// Send blocks while the queue is full; it returns ErrClosed if the queue is
// (or becomes, while blocked) closed.
func (b *Bounded) Send(m Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n == len(b.buf) && !b.closed {
		b.notFull.Wait()
	}
	if b.closed {
		return b.closeErr()
	}
	b.buf[(b.head+b.n)%len(b.buf)] = m
	b.n++
	b.notEmpty.Broadcast()
	return nil
}

// Recv blocks until a message is available; once the queue is closed and
// drained it returns ErrClosed.
func (b *Bounded) Recv() (Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n == 0 && !b.closed {
		b.notEmpty.Wait()
	}
	if b.n == 0 {
		return Message{}, b.closeErr()
	}
	return b.pop(), nil
}

// TrySend appends m if the queue has a free slot: (false, nil) while full,
// (false, ErrClosed) once closed — closure wins when the queue is both.
func (b *Bounded) TrySend(m Message) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false, b.closeErr()
	}
	if b.n == len(b.buf) {
		return false, nil
	}
	b.buf[(b.head+b.n)%len(b.buf)] = m
	b.n++
	b.notEmpty.Broadcast()
	return true, nil
}

// WaitSend parks until the queue has a free slot (nil), is closed (the
// close error), or deadline passes while it is full (ErrDeadline).
func (b *Bounded) WaitSend(deadline time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n == len(b.buf) && !b.closed {
		if !b.fullAlarm.wait(b.notFull, deadline) {
			return ErrDeadline
		}
	}
	if b.closed {
		return b.closeErr()
	}
	return nil
}

// WaitRecv parks until a message is buffered (nil), the queue is closed and
// drained (the close error), or deadline passes (ErrDeadline).
func (b *Bounded) WaitRecv(deadline time.Time) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n == 0 && !b.closed {
		if !b.emptyAlarm.wait(b.notEmpty, deadline) {
			return ErrDeadline
		}
	}
	if b.n == 0 {
		return b.closeErr()
	}
	return nil
}

// TryRecv returns immediately; a closed-but-nonempty queue still delivers.
func (b *Bounded) TryRecv() (Message, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n > 0 {
		return b.pop(), true, nil
	}
	if b.closed {
		return Message{}, false, b.closeErr()
	}
	return Message{}, false, nil
}

// pop assumes b.mu held and b.n > 0.
func (b *Bounded) pop() Message {
	m := b.buf[b.head]
	b.buf[b.head] = Message{} // release the payload for GC
	b.head = (b.head + 1) % len(b.buf)
	b.n--
	b.notFull.Broadcast()
	return m
}

// Len returns the number of buffered messages.
func (b *Bounded) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Close marks the queue closed, waking blocked senders (ErrClosed) and
// receivers (which drain the buffer first).
func (b *Bounded) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.notFull.Broadcast()
	b.notEmpty.Broadcast()
}

// CloseWithError closes the queue with a cause (first cause wins): blocked
// senders and receivers — after the drain — observe a *CloseError wrapping
// err.
func (b *Bounded) CloseWithError(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil && b.cause == nil && !b.closed {
		b.cause = &CloseError{Cause: err}
	}
	b.closed = true
	b.notFull.Broadcast()
	b.notEmpty.Broadcast()
}

// Reset restores the queue to its empty, open state, keeping the backing
// ring. Quiescence contract as documented on Resetter.
func (b *Bounded) Reset() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.buf {
		b.buf[i] = Message{} // release payloads for GC
	}
	b.head = 0
	b.n = 0
	b.closed = false
	b.cause = nil
	return true
}

// Rendezvous is a synchronous channel: Send blocks until a receiver takes the
// message, as in the synchronous baselines (Sesh, MultiCrusty).
//
// A native channel cannot be probed without committing, so readiness for
// the deadline waits is a count of the parties blocked in the opposite
// blocking operation: TrySend can succeed only while a receiver is blocked
// in Recv, and TryRecv only while a sender is blocked in Send. Two
// deadline-armed parties therefore never meet on a Rendezvous; they time
// out.
type Rendezvous struct {
	ch     chan Message
	cause  atomic.Pointer[CloseError]
	closed atomic.Bool

	senders   atomic.Int32 // parties in Send
	receivers atomic.Int32 // parties in Recv
	gate      parkGate     // WaitSend/WaitRecv park here
}

// closeErr returns the error a closed rendezvous reports. The cause store in
// CloseWithError is ordered before close(ch), and a receive observing !ok
// synchronizes with that close, so the load here sees it.
func (r *Rendezvous) closeErr() error {
	if c := r.cause.Load(); c != nil {
		return c
	}
	return ErrClosed
}

// NewRendezvous returns a fresh synchronous channel.
func NewRendezvous() *Rendezvous { return &Rendezvous{ch: make(chan Message)} }

// Send blocks until the message is received.
func (r *Rendezvous) Send(m Message) error {
	r.senders.Add(1)
	r.gate.wake()
	r.ch <- m
	r.senders.Add(-1)
	return nil
}

// TrySend hands m to a receiver that is already waiting; (false, nil) when
// none is. Like Send, it panics on a closed Rendezvous (native channel
// semantics; the session runtimes close routes only after senders finish).
func (r *Rendezvous) TrySend(m Message) (bool, error) {
	select {
	case r.ch <- m:
		return true, nil
	default:
		return false, nil
	}
}

// WaitSend parks until a receiver is blocked in Recv (nil), the channel is
// closed (the close error), or deadline passes (ErrDeadline).
func (r *Rendezvous) WaitSend(deadline time.Time) error {
	if !r.gate.park(func() bool { return r.receivers.Load() > 0 || r.closed.Load() }, deadline) {
		return ErrDeadline
	}
	if r.closed.Load() {
		return r.closeErr()
	}
	return nil
}

// WaitRecv parks until a sender is blocked in Send (nil), the channel is
// closed (the close error), or deadline passes (ErrDeadline).
func (r *Rendezvous) WaitRecv(deadline time.Time) error {
	if !r.gate.park(func() bool { return r.senders.Load() > 0 || r.closed.Load() }, deadline) {
		return ErrDeadline
	}
	if r.senders.Load() == 0 && r.closed.Load() {
		return r.closeErr()
	}
	return nil
}

// Recv blocks until a sender arrives.
func (r *Rendezvous) Recv() (Message, error) {
	r.receivers.Add(1)
	r.gate.wake()
	m, ok := <-r.ch
	r.receivers.Add(-1)
	if !ok {
		return Message{}, r.closeErr()
	}
	return m, nil
}

// TryRecv returns immediately.
func (r *Rendezvous) TryRecv() (Message, bool, error) {
	select {
	case m, ok := <-r.ch:
		if !ok {
			return Message{}, false, r.closeErr()
		}
		return m, true, nil
	default:
		return Message{}, false, nil
	}
}

// Close closes the channel; pending and future receivers observe ErrClosed.
// Close is idempotent (a CAS gates the native close), so repeated session
// teardowns — an abort followed by the final Close — are safe.
func (r *Rendezvous) Close() {
	if r.closed.CompareAndSwap(false, true) {
		close(r.ch)
		r.gate.wake()
	}
}

// CloseWithError closes the channel with a cause (first cause wins); pending
// and future receivers observe a *CloseError wrapping err. Like Close, it
// must not race a blocked Send (native channel semantics); the session
// runtimes close routes only on teardown.
func (r *Rendezvous) CloseWithError(err error) {
	if err != nil && !r.closed.Load() {
		r.cause.CompareAndSwap(nil, &CloseError{Cause: err})
	}
	r.Close()
}

// Reset reports whether the rendezvous is reusable: a clean (never-closed)
// rendezvous already is — it holds no buffered state — while a closed one
// cannot be reopened (native channel semantics), so pooled networks built
// over Rendezvous fall back to fresh allocation after any teardown.
func (r *Rendezvous) Reset() bool { return !r.closed.Load() }

var (
	_ Sender    = (*Queue)(nil)
	_ Receiver  = (*Queue)(nil)
	_ Substrate = (*Queue)(nil)
	_ Resetter  = (*Queue)(nil)
	_ Sender    = (*Bounded)(nil)
	_ Receiver  = (*Bounded)(nil)
	_ Substrate = (*Bounded)(nil)
	_ Resetter  = (*Bounded)(nil)
	_ Sender    = (*Rendezvous)(nil)
	_ Receiver  = (*Rendezvous)(nil)
	_ Substrate = (*Rendezvous)(nil)
	_ Resetter  = (*Rendezvous)(nil)
)
