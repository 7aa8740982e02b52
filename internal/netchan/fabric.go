package netchan

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/types"
	"repro/internal/wire"
)

// Fabric binds one process's role to the socket mesh of a session: it
// listens for inbound routes, dials outbound ones (with retry, so peers
// can start in any order), and matches connections to routes via the wire
// hello handshake. Its RouteMaker plugs into session.NewCustomNetwork /
// Session.Rewire, producing the send half for routes leaving the local
// role, the receive half for routes entering it, and an inert stub for
// routes between remote peers.
type Fabric struct {
	local types.Role
	tab   *wire.Table
	opts  Options
	n     *notifier

	mu       sync.Mutex
	ln       net.Listener
	network  string
	peers    map[types.Role]string // peer role -> dial address
	waiting  map[types.Role]*recvHalf
	parked   map[types.Role]*parkedConn // accepted before the half existed
	sends    []*sendHalf
	recvs    []*recvHalf
	closed   bool
	closeCh  chan struct{} // graceful teardown: flush, then goodbye
	hardCh   chan struct{} // grace expired: cut dials and connections now
	hardOnce sync.Once
	acceptWG sync.WaitGroup
}

// closeGrace bounds how long Close waits for writers to flush and say
// goodbye before cutting their connections.
const closeGrace = 2 * time.Second

type parkedConn struct {
	conn     net.Conn
	leftover []byte
}

// NewFabric creates a fabric for the local role over the protocol's wire
// table. The table was built by wire.TableFromLocals, which is where
// codec-less sorts were already rejected — dial time for the substrate.
func NewFabric(local types.Role, tab *wire.Table, opts Options) *Fabric {
	opts = opts.withDefaults()
	n := &notifier{}
	n.set(opts.Notify)
	return &Fabric{
		local:   local,
		tab:     tab,
		opts:    opts,
		n:       n,
		peers:   map[types.Role]string{},
		waiting: map[types.Role]*recvHalf{},
		parked:  map[types.Role]*parkedConn{},
		closeCh: make(chan struct{}),
		hardCh:  make(chan struct{}),
	}
}

// SetNotify installs the readiness hook (e.g. a sched.Waker's Wake) for
// every route of this fabric, current and future.
func (f *Fabric) SetNotify(fn func()) { f.n.set(fn) }

// Listen starts accepting inbound routes on network ("tcp" or "unix") at
// addr; it returns the bound address (useful with ":0").
func (f *Fabric) Listen(network, addr string) (string, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return "", err
	}
	f.mu.Lock()
	f.ln, f.network = ln, network
	f.mu.Unlock()
	f.acceptWG.Add(1)
	go f.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// SetPeer records where a peer role can be dialed; the network is the one
// passed to Listen (every process of one session uses the same family).
func (f *Fabric) SetPeer(role types.Role, addr string) {
	f.mu.Lock()
	f.peers[role] = addr
	f.mu.Unlock()
}

func (f *Fabric) acceptLoop(ln net.Listener) {
	defer f.acceptWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go f.handshake(conn)
	}
}

// handshake reads the hello frame off an accepted connection and binds the
// connection to its receiving half. Bytes read past the hello are handed
// to the half as initial parse input.
func (f *Fabric) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(f.opts.DialTimeout))
	buf := make([]byte, 0, 512)
	tmp := make([]byte, 512)
	for {
		frame, n, err := wire.ParseHello(buf)
		if err == nil {
			conn.SetReadDeadline(time.Time{})
			if frame.Kind != wire.KindHello || frame.To != f.local || frame.Protocol != f.tab.Protocol() {
				conn.Close()
				return
			}
			f.bind(frame.From, conn, buf[n:])
			return
		}
		if !errors.Is(err, wire.ErrIncomplete) {
			conn.Close()
			return
		}
		k, rerr := conn.Read(tmp)
		if k > 0 {
			buf = append(buf, tmp[:k]...)
		}
		if rerr != nil {
			conn.Close()
			return
		}
	}
}

// bind attaches an authenticated inbound connection to the receive half
// for routes from the given peer — or parks it until that half is made.
func (f *Fabric) bind(from types.Role, conn net.Conn, leftover []byte) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		conn.Close()
		return
	}
	if r, ok := f.waiting[from]; ok {
		delete(f.waiting, from)
		r.dialTimer.Stop()
		f.mu.Unlock()
		r.attach(conn, leftover)
		return
	}
	f.parked[from] = &parkedConn{conn: conn, leftover: append([]byte(nil), leftover...)}
	f.mu.Unlock()
}

// RouteMaker returns the mk function for session.NewCustomNetwork (or the
// body of a Session.Rewire callback) over exactly this roles slice: the
// network constructor calls mk once per ordered pair in row-major order,
// and the returned closure counts ordinals to know which route it is
// building. The roles slice must be the one the network is built over.
func (f *Fabric) RouteMaker(roles []types.Role) func() channel.Substrate {
	ordinal := 0
	k := len(roles)
	return func() channel.Substrate {
		n := ordinal
		ordinal++
		// Ordinal n is the n-th (i, j) pair with i != j, row-major.
		i := n / (k - 1)
		j := n % (k - 1)
		if j >= i {
			j++
		}
		from, to := roles[i], roles[j]
		switch {
		case from == f.local:
			return f.makeSend(to)
		case to == f.local:
			return f.makeRecv(from)
		default:
			return &stubRoute{from: from, to: to}
		}
	}
}

// makeSend builds the sending half of local->to and dials in the
// background: the ring buffers traffic while the peer comes up.
func (f *Fabric) makeSend(to types.Role) channel.Substrate {
	s := newSendHalf(f.tab, f.opts, f.n)
	f.mu.Lock()
	f.sends = append(f.sends, s)
	addr, ok := f.peers[to]
	network := f.network
	f.mu.Unlock()
	if !ok {
		s.fail(fmt.Errorf("netchan: no address for peer role %s", to))
		return s
	}
	go f.dial(s, to, network, addr)
	return s
}

// dial connects with retry until DialTimeout: peers of one session start
// in arbitrary order, so connection-refused is expected early on. A
// graceful fabric Close does NOT abort a dial while the half still holds
// buffered traffic — a pure sender may finish its whole role before any
// peer's listener is even up, and its messages must still reach the wire
// ahead of the goodbye. The hard abort (grace expired) always cuts; a dial
// blocked inside the OS connect is bounded by DialTimeout.
func (f *Fabric) dial(s *sendHalf, to types.Role, network, addr string) {
	deadline := time.Now().Add(f.opts.DialTimeout)
	for {
		conn, err := net.DialTimeout(network, addr, time.Until(deadline))
		if err == nil {
			select {
			case <-f.hardCh:
				conn.Close()
				s.fail(fmt.Errorf("netchan: fabric closed while dialing %s", to))
				return
			default:
			}
			if _, werr := conn.Write(wire.AppendHello(nil, f.local, to, f.tab.Protocol())); werr != nil {
				conn.Close()
				s.fail(fmt.Errorf("netchan: hello to %s: %w", to, werr))
				return
			}
			s.attach(conn)
			return
		}
		if time.Now().After(deadline) {
			s.fail(fmt.Errorf("netchan: dial %s (%s %s): %w", to, network, addr, err))
			return
		}
		select {
		case <-f.closeCh:
			if s.ring.Len() == 0 {
				s.fail(fmt.Errorf("netchan: fabric closed while dialing %s: %w", to, err))
				return
			}
			// Buffered traffic to flush: keep dialing through the graceful
			// close, until the grace cut.
			select {
			case <-f.hardCh:
				s.fail(fmt.Errorf("netchan: fabric closed while dialing %s: %w", to, err))
				return
			case <-time.After(25 * time.Millisecond):
			}
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// makeRecv builds the receiving half of from->local, attaching a parked
// connection if the peer dialed first.
func (f *Fabric) makeRecv(from types.Role) channel.Substrate {
	r := newRecvHalf(f.tab, f.opts, f.n)
	f.mu.Lock()
	f.recvs = append(f.recvs, r)
	if pc, ok := f.parked[from]; ok {
		delete(f.parked, from)
		f.mu.Unlock()
		r.attach(pc.conn, pc.leftover)
		return r
	}
	f.waiting[from] = r
	// The accept loop will bind the connection when the peer dials; if it
	// never does, fail the half at the dial deadline so receivers observe
	// a typed cause instead of blocking forever. The timer holds no
	// goroutine while it waits: bind stops it on attach, Close on teardown.
	r.dialTimer = time.AfterFunc(f.opts.DialTimeout, func() {
		f.mu.Lock()
		still := f.waiting[from] == r && !f.closed
		if still {
			delete(f.waiting, from)
		}
		f.mu.Unlock()
		if still {
			r.fail(fmt.Errorf("netchan: peer %s never dialed route %s->%s", from, from, f.local))
		}
	})
	f.mu.Unlock()
	return r
}

// Close tears the fabric down: the listener and every route.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	close(f.closeCh)
	ln := f.ln
	sends := append([]*sendHalf(nil), f.sends...)
	recvs := append([]*recvHalf(nil), f.recvs...)
	parked := f.parked
	f.parked = map[types.Role]*parkedConn{}
	for _, r := range f.waiting {
		r.dialTimer.Stop()
	}
	f.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, s := range sends {
		s.Close()
	}
	// Let writers flush and say goodbye, but bounded: at the grace
	// deadline every wedged half is cut — in-flight dials via the hard
	// abort, attached connections by closing them (the pending write
	// fails and the writer exits). grace.C fires at most once, so after
	// the first expiry every remaining half takes the cut path directly.
	grace := time.NewTimer(closeGrace)
	defer grace.Stop()
	expired := false
	for _, s := range sends {
		if !expired {
			select {
			case <-s.done:
				continue
			case <-grace.C:
				expired = true
				f.hardOnce.Do(func() { close(f.hardCh) })
			}
		}
		// Only read s.conn once ready is observed closed: the attach
		// that writes it happens-before that close. A half still
		// dialing is aborted by the hard abort inside the dial loop.
		select {
		case <-s.ready:
			if s.conn != nil {
				s.conn.Close()
			}
		default:
		}
		<-s.done
	}
	for _, r := range recvs {
		r.Close()
	}
	for _, pc := range parked {
		pc.conn.Close()
	}
	f.acceptWG.Wait()
}

// stubRoute stands in for routes between two remote roles: the local
// process never touches them, but the session network still constructs and
// closes them. Data operations are a programming error.
type stubRoute struct {
	from, to types.Role
}

func (s *stubRoute) Send(channel.Message) error { panic(s.misuse("Send")) }
func (s *stubRoute) TrySend(channel.Message) (bool, error) {
	panic(s.misuse("TrySend"))
}
func (s *stubRoute) Recv() (channel.Message, error) { panic(s.misuse("Recv")) }
func (s *stubRoute) TryRecv() (channel.Message, bool, error) {
	panic(s.misuse("TryRecv"))
}
func (s *stubRoute) WaitSend(time.Time) error { panic(s.misuse("WaitSend")) }
func (s *stubRoute) WaitRecv(time.Time) error { panic(s.misuse("WaitRecv")) }
func (s *stubRoute) Close()                   {}
func (s *stubRoute) CloseWithError(error)     {}

func (s *stubRoute) misuse(op string) string {
	return fmt.Sprintf("netchan: %s on route %s->%s, which is not local to this process", op, s.from, s.to)
}

var _ channel.Substrate = (*stubRoute)(nil)
