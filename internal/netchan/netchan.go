package netchan

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/channel"
	"repro/internal/wire"
)

// ErrDisconnected is the close cause observed when the peer's connection
// drops without a goodbye frame: a crash or a cut link, as opposed to a
// deliberate Close/CloseWithError.
var ErrDisconnected = errors.New("netchan: peer disconnected without a goodbye frame")

// Options tunes a fabric or pipe substrate. The zero value is ready to use.
type Options struct {
	// Buffer is the per-direction ring capacity (default 64). This is the
	// k of the k-bounded execution model: the number of in-flight messages
	// a route absorbs before TrySend reports would-block and backpressure
	// reaches the peer.
	Buffer int
	// Batch caps how many buffered messages the writer encodes into one
	// socket write (default Buffer).
	Batch int
	// DialTimeout bounds connection establishment per route, including
	// retries while the peer's listener is still coming up (default 10s).
	DialTimeout time.Duration
	// Notify, when set, is invoked (on pump goroutines) after every
	// delivery and close, and after the writer frees send slots while a
	// TrySend refused since its last drain is waiting for one — the
	// readiness hook a scheduler's waker plugs into. A sender that never
	// found the route full is not woken for the slots its frames free.
	// The pumps call it with no lock held, because it may do the woken
	// session's work on the calling goroutine: a sched.Waker's Wake runs
	// a parked session there for up to one quantum, and that session's
	// TryRecv and TrySend take the route's locks. A hook installed here
	// must likewise not be called with a lock held that the session's
	// routes take.
	Notify func()
}

func (o Options) withDefaults() Options {
	if o.Buffer < 1 {
		o.Buffer = 64
	}
	if o.Batch < 1 || o.Batch > o.Buffer {
		o.Batch = o.Buffer
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	return o
}

// notifier is the shared readiness hook: halves load it on every
// transition, and SetNotify swaps it fabric-wide.
type notifier struct{ fn atomic.Pointer[func()] }

func (n *notifier) set(fn func()) {
	if fn != nil {
		n.fn.Store(&fn)
	}
}

func (n *notifier) wake() {
	if f := n.fn.Load(); f != nil {
		(*f)()
	}
}

// sendHalf is the sending end of a network route: a bounded ring drained
// by a writer goroutine that frames whole runs into single writes and
// carries Close/CloseWithError as a goodbye frame after the drain. TrySend
// skips the ring when nothing is queued ahead of it and writes the frame to
// the socket itself (writeDirect).
type sendHalf struct {
	ring    *channel.Ring
	tab     *wire.Table
	batch   int
	notify  *notifier
	refused atomic.Bool // a TrySend found the ring full since the writer's last drain

	// wmu orders direct writes against the writer. The writer takes it to
	// pop a batch and raise busy, and for its goodbye; busy drops once the
	// batch is written. TrySend takes wmu with TryLock, so a sender never
	// waits for the writer. Held with the ring empty and busy down, it means
	// every frame accepted so far is on the wire, or in carry.
	wmu     sync.Mutex
	busy    atomic.Bool        // the writer holds a popped batch not yet written
	raw     syscall.RawConn    // direct-write handle; nil: the writer writes everything
	writeFn func(uintptr) bool // raw's write callback, bound once (bindDirect)
	frame   []byte             // TrySend's encoded frame
	wrote   int                // bytes of frame the last direct write took
	// carry is the unwritten tail of a direct write. It belongs to the
	// ring's head message, which the writer then sends as these bytes
	// instead of encoding it again.
	carry []byte

	ready   chan struct{} // closed once conn or dialErr is set
	conn    net.Conn
	dialErr error
	done    chan struct{} // writer exited
}

func newSendHalf(tab *wire.Table, opts Options, n *notifier) *sendHalf {
	s := &sendHalf{
		ring:   channel.NewParkingRing(opts.Buffer),
		tab:    tab,
		batch:  opts.Batch,
		notify: n,
		ready:  make(chan struct{}),
		done:   make(chan struct{}),
	}
	go s.run()
	return s
}

// attach hands the half its connection; fail aborts it with a dial error.
func (s *sendHalf) attach(conn net.Conn) {
	s.wmu.Lock()
	s.bindDirect(conn)
	s.wmu.Unlock()
	s.conn = conn
	close(s.ready)
}
func (s *sendHalf) fail(err error) { s.dialErr = err; close(s.ready) }

// run is the writer pump: drain the ring in batches, one write per batch,
// goodbye (carrying the close cause, if any) once the ring is closed and
// drained. A Close racing the dial does not cut the flush short: the
// writer waits for the dial to resolve — a graceful fabric teardown keeps
// the dial alive while the ring holds traffic, and only the grace cut (or
// the dial deadline) aborts it — so messages accepted before Close still
// reach the wire ahead of the goodbye, even when the sender finished its
// whole role before any connection existed.
//
// A drain notifies only when a TrySend was refused since the last one. No
// wake is lost: the CAS that clears the flag comes after TryRecvN has freed
// the slots, and TrySend probes again after raising it, so either the
// refused sender's second probe sees a free slot or this drain sees the
// flag. The hook fires with no lock held, before the batch's write, which
// may block on a peer that is itself waiting for the woken sender: the hook
// may run that session on this goroutine, and its TrySend takes wmu.
func (s *sendHalf) run() {
	defer close(s.done)
	<-s.ready
	if s.conn == nil {
		s.ring.CloseWithError(s.dialErr)
		s.notify.wake()
		return
	}
	batch := make([]channel.Message, s.batch)
	var wbuf []byte
	for {
		err := s.ring.WaitRecv(time.Time{})
		s.wmu.Lock()
		wbuf = append(wbuf[:0], s.carry...)
		first := 0
		if len(s.carry) > 0 {
			first = 1 // the head message, already framed in carry
		}
		s.carry = nil
		if err != nil {
			// Closed and drained: say goodbye. Best-effort with a short
			// deadline — the peer may already be gone — and the cause,
			// when one was set, crosses the wire by name (wire.EncodeCause).
			s.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			s.conn.Write(wire.AppendGoodbye(wbuf, closeCause(err)))
			s.conn.Close()
			s.wmu.Unlock()
			s.notify.wake()
			return
		}
		// WaitRecv saw a message and only this goroutine consumes, so
		// TryRecvN takes at least one.
		n, _ := s.ring.TryRecvN(batch)
		s.busy.Store(true)
		s.wmu.Unlock()
		if s.refused.CompareAndSwap(true, false) {
			s.notify.wake() // slots freed: the sender parked would-block may retry
		}
		werr := error(nil)
		for _, m := range batch[first:n] {
			if wbuf, werr = s.tab.AppendData(wbuf, m.Label, m.Value); werr != nil {
				break
			}
		}
		if werr == nil {
			_, werr = s.conn.Write(wbuf)
		}
		s.busy.Store(false)
		if werr != nil {
			s.ring.CloseWithError(werr)
			s.conn.Close()
			s.notify.wake()
			return
		}
	}
}

// closeCause extracts the cause from a ring's close error: nil for a plain
// close, the wrapped cause for CloseWithError.
func closeCause(err error) error {
	var ce *channel.CloseError
	if errors.As(err, &ce) {
		return ce.Cause
	}
	return nil
}

// Send is TrySend, and WaitSend between refusals: a blocking sender takes
// the direct write too.
func (s *sendHalf) Send(m channel.Message) error { return channel.Send(s, m, time.Time{}) }

// TrySend writes m straight to the socket when nothing is queued ahead of
// it (writeDirect); otherwise it is the ring's TrySend. A refusal raises
// the flag that makes the writer's next drain notify, then probes once
// more: a drain that cleared the flag before it was raised has already
// freed a slot.
func (s *sendHalf) TrySend(m channel.Message) (bool, error) {
	if s.ring.Len() == 0 && s.wmu.TryLock() {
		ok, err := s.writeDirect(m)
		s.wmu.Unlock()
		if ok || err != nil {
			return ok, err
		}
	}
	if ok, err := s.ring.TrySend(m); ok || err != nil {
		return ok, err
	}
	s.refused.Store(true)
	return s.ring.TrySend(m)
}

// writeDirect is TrySend's path past the writer, run with wmu held. When
// the ring is still empty and the writer is not busy, every earlier frame
// is written, so this one can go out on this goroutine in one non-blocking
// write. Whatever the socket does not take (EAGAIN, a short write, an error
// the writer's own write will meet again) becomes carry, and m is queued
// behind it for the writer: the caller never blocks, and frames stay in
// order. It reports false with no error when m should take the ring path
// instead: no raw connection (not attached yet, net.Pipe), a frame queued
// or being written ahead of it, or an encode error, which the writer then
// meets as on the ring path.
func (s *sendHalf) writeDirect(m channel.Message) (bool, error) {
	if s.raw == nil || s.ring.Len() != 0 || s.busy.Load() {
		return false, nil
	}
	// With the ring empty, WaitSend returns at once: nil, or the close error.
	if err := s.ring.WaitSend(time.Time{}); err != nil {
		return false, err
	}
	var err error
	if s.frame, err = s.tab.AppendData(s.frame[:0], m.Label, m.Value); err != nil {
		return false, nil
	}
	s.wrote = 0
	s.raw.Write(s.writeFn)
	if s.wrote >= len(s.frame) {
		return true, nil
	}
	s.carry = s.frame[max(s.wrote, 0):]
	if _, err := s.ring.TrySend(m); err != nil && s.wrote <= 0 {
		// Closed since the check, with nothing written: refuse m as the
		// ring would. After a partial write the carry stays, and the
		// writer finishes the frame ahead of its goodbye.
		s.carry = nil
		return false, err
	}
	return true, nil
}

// TrySendN queues the run on the ring for the writer, behind any frame
// already queued. A short count is for WaitSend to wait out: unlike a
// refused TrySend, it does not arm the notify hook.
func (s *sendHalf) TrySendN(ms []channel.Message) (int, error) { return s.ring.TrySendN(ms) }

// WaitSend parks on the ring the writer drains: a freed slot wakes it.
func (s *sendHalf) WaitSend(deadline time.Time) error { return s.ring.WaitSend(deadline) }

func (s *sendHalf) Recv() (channel.Message, error) {
	panic("netchan: Recv on the sending end of a network route")
}
func (s *sendHalf) TryRecv() (channel.Message, bool, error) {
	panic("netchan: TryRecv on the sending end of a network route")
}
func (s *sendHalf) WaitRecv(time.Time) error {
	panic("netchan: WaitRecv on the sending end of a network route")
}

func (s *sendHalf) Close() { s.ring.Close() }

func (s *sendHalf) CloseWithError(err error) { s.ring.CloseWithError(err) }

// recvHalf is the receiving end: a reader goroutine, parked on the runtime
// netpoller between reads, parses frames off the socket into a bounded
// ring.
type recvHalf struct {
	ring   *channel.Ring
	tab    *wire.Table
	notify *notifier

	mu      sync.Mutex // guards conn and stopped
	conn    net.Conn
	stopped bool // local Close before or after attach

	// dialTimer fails the half if its peer never dials (Fabric.makeRecv);
	// guarded by the fabric's lock.
	dialTimer *time.Timer

	// buf holds the bytes read but not yet parsed; reads land in its spare
	// capacity. Owned by the reader goroutine.
	buf []byte
}

// A receive half's read buffer starts at readMin bytes and doubles each
// time a read fills it, up to readMax; past that it grows only when an
// unparsed frame fills it, so that the frame fits.
const (
	readMin = 512
	readMax = 64 << 10
)

func newRecvHalf(tab *wire.Table, opts Options, n *notifier) *recvHalf {
	return &recvHalf{
		ring:   channel.NewParkingRing(opts.Buffer),
		tab:    tab,
		notify: n,
	}
}

// attach hands the half its accepted connection plus any bytes the
// handshake read past the hello frame, and starts its reader.
func (r *recvHalf) attach(conn net.Conn, leftover []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		conn.Close()
		return
	}
	r.conn = conn
	r.buf = append(r.buf, leftover...)
	go r.runReader()
}

// fail aborts a half whose connection never arrived.
func (r *recvHalf) fail(err error) {
	r.ring.CloseWithError(err)
	r.notify.wake()
}

// runReader is the receive pump: blocking reads on a dedicated goroutine
// (parked on the runtime netpoller), blocking ring sends for backpressure.
// The handshake may have read past the hello frame, so whatever it left in
// r.buf is drained before the first read — a message that arrived glued to
// the hello must not wait for further traffic to surface it.
func (r *recvHalf) runReader() {
	conn := r.conn
	if done := r.drainBlocking(); done {
		conn.Close()
		r.notify.wake()
		return
	}
	filled := false
	for {
		if c := cap(r.buf); c < readMin || len(r.buf) == c || filled && c < readMax {
			r.buf = append(make([]byte, 0, max(2*c, readMin)), r.buf...)
		}
		n, err := conn.Read(r.buf[len(r.buf):cap(r.buf)])
		filled = n == cap(r.buf)-len(r.buf)
		if n > 0 {
			r.buf = r.buf[:len(r.buf)+n]
			if done := r.drainBlocking(); done {
				conn.Close()
				r.notify.wake()
				return
			}
		}
		if err != nil {
			r.ring.CloseWithError(readCause(err))
			conn.Close()
			r.notify.wake()
			return
		}
	}
}

// readCause maps a transport read error to the close cause receivers see:
// a silent EOF (or a locally closed conn) is ErrDisconnected, anything
// else is carried as-is.
func readCause(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, ErrDisconnected) {
		return ErrDisconnected
	}
	return fmt.Errorf("netchan: transport read: %w", err)
}

// drainBlocking parses every complete frame in r.buf, delivering with
// blocking ring sends, then moves the incomplete tail to the front of the
// buffer. It reports whether the stream is finished (goodbye, parse
// failure, or local close).
func (r *recvHalf) drainBlocking() bool {
	off := 0
	for {
		f, n, err := r.tab.Parse(r.buf[off:])
		if errors.Is(err, wire.ErrIncomplete) {
			r.buf = r.buf[:copy(r.buf, r.buf[off:])]
			return false
		}
		if err != nil {
			r.ring.CloseWithError(err)
			return true
		}
		off += n
		switch f.Kind {
		case wire.KindData:
			if r.ring.Send(channel.Message{Label: f.Label, Value: f.Value}) != nil {
				return true // locally closed: stop pumping
			}
			r.notify.wake()
		case wire.KindGoodbye:
			r.ring.CloseWithError(f.Cause) // nil cause = plain close
			return true
		default:
			r.ring.CloseWithError(&wire.FormatError{Reason: "unexpected handshake frame mid-stream"})
			return true
		}
	}
}

func (r *recvHalf) Recv() (channel.Message, error)              { return channel.Recv(r, time.Time{}) }
func (r *recvHalf) TryRecv() (channel.Message, bool, error)     { return r.ring.TryRecv() }
func (r *recvHalf) TryRecvN(dst []channel.Message) (int, error) { return r.ring.TryRecvN(dst) }

// WaitRecv parks on the ring the reader fills: a delivery (or the close a
// goodbye frame or a dropped connection brings) wakes it.
func (r *recvHalf) WaitRecv(deadline time.Time) error { return r.ring.WaitRecv(deadline) }

func (r *recvHalf) Send(channel.Message) error {
	panic("netchan: Send on the receiving end of a network route")
}
func (r *recvHalf) TrySend(channel.Message) (bool, error) {
	panic("netchan: TrySend on the receiving end of a network route")
}
func (r *recvHalf) WaitSend(time.Time) error {
	panic("netchan: WaitSend on the receiving end of a network route")
}

// Close tears the receiving end down locally: buffered messages stay
// receivable (ring drain semantics), the pump stops. Messages still in the
// socket are lost — inherent to tearing down a distributed route.
func (r *recvHalf) Close() { r.closeLocal(nil) }

// CloseWithError is Close with a locally observed cause (first cause wins,
// so a cause already delivered by a goodbye frame is not overwritten).
func (r *recvHalf) CloseWithError(err error) { r.closeLocal(err) }

func (r *recvHalf) closeLocal(cause error) {
	r.mu.Lock()
	r.stopped = true
	conn := r.conn
	r.mu.Unlock()
	if cause == nil {
		r.ring.Close()
	} else {
		r.ring.CloseWithError(cause)
	}
	if conn != nil {
		conn.Close() // unblocks the reader
	}
	r.notify.wake()
}

// Route is a full in-process substrate over a connection pair: the sending
// half on one end, the receiving half on the other. It implements
// channel.Substrate — the session runtimes use it exactly like a ring —
// while every message round-trips through the wire format. Pipe builds one
// over an in-memory duplex; fabrics use the halves directly.
type Route struct {
	send *sendHalf
	recv *recvHalf
	n    *notifier
}

func (p *Route) Send(m channel.Message) error                { return channel.Send(p, m, time.Time{}) }
func (p *Route) TrySend(m channel.Message) (bool, error)     { return p.send.TrySend(m) }
func (p *Route) TrySendN(ms []channel.Message) (int, error)  { return p.send.TrySendN(ms) }
func (p *Route) Recv() (channel.Message, error)              { return channel.Recv(p, time.Time{}) }
func (p *Route) TryRecv() (channel.Message, bool, error)     { return p.recv.TryRecv() }
func (p *Route) TryRecvN(dst []channel.Message) (int, error) { return p.recv.TryRecvN(dst) }
func (p *Route) WaitSend(deadline time.Time) error           { return p.send.WaitSend(deadline) }
func (p *Route) WaitRecv(deadline time.Time) error           { return p.recv.WaitRecv(deadline) }

// Close closes the sending end only: the goodbye frame closes the
// receiving end after every in-flight data frame has drained, so a
// receiver still sees all messages sent before the close — the same
// drain-before-closeErr contract the ring gives in-process.
func (p *Route) Close() {
	p.send.Close()
}

// CloseWithError is Close carrying a cause: the goodbye delivers it to the
// receiving end (first cause wins end-to-end).
func (p *Route) CloseWithError(err error) {
	p.send.CloseWithError(err)
}

// Abandon hard-tears the route down without draining: both rings close,
// the connections drop, the pumps exit. For cleanup paths (tests, chaos
// harnesses) that leave buffered messages behind on purpose — a graceful
// Close there would wedge the writer against a ring nobody reads.
func (p *Route) Abandon() {
	p.recv.closeLocal(nil)
	p.send.Close()
	if p.send.conn != nil {
		p.send.conn.Close()
	}
}

// SetNotify installs the readiness hook for both directions.
func (p *Route) SetNotify(fn func()) { p.n.set(fn) }

// Pipe returns a substrate over an in-memory duplex (net.Pipe): the full
// wire format and pump structure with no sockets — the loopback used by
// the contract tests and the chaos network column.
func Pipe(tab *wire.Table, opts Options) *Route {
	opts = opts.withDefaults()
	n := &notifier{}
	n.set(opts.Notify)
	c1, c2 := net.Pipe()
	s := newSendHalf(tab, opts, n)
	s.attach(c1)
	r := newRecvHalf(tab, opts, n)
	r.attach(c2, nil)
	return &Route{send: s, recv: r, n: n}
}

var (
	_ channel.Substrate     = (*sendHalf)(nil)
	_ channel.Substrate     = (*recvHalf)(nil)
	_ channel.Substrate     = (*Route)(nil)
	_ channel.BatchSender   = (*Route)(nil)
	_ channel.BatchReceiver = (*Route)(nil)
)
