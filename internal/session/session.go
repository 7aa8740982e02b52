package session

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/kmc"
	"repro/internal/project"
	"repro/internal/types"
)

// ErrLinearity is returned when an endpoint is used by two sessions at once
// or reused without Reset.
var ErrLinearity = errors.New("session: endpoint already in use (linearity violation)")

// ErrWouldBlock is returned by the non-blocking endpoint operations
// (TrySendMsg, TryRecvMsg, the Unchecked Try faces and the generated Try*
// methods) when the substrate cannot make progress right now: the outgoing
// route is full, or no message has arrived yet. The operation had no effect —
// in particular the monitor did not move — so the caller retries after its
// peer makes progress; internal/sched turns this sentinel into parking.
var ErrWouldBlock = errors.New("session: operation would block")

// ErrIncomplete is returned by TrySession when the process returned before
// driving its protocol to a terminal state.
var ErrIncomplete = errors.New("session: process returned before the protocol completed")

// ErrTimeout is the sentinel under every deadline expiry: an endpoint
// operation that could not complete before the deadline armed with
// SetDeadline (or a context deadline) fails with a *TimeoutError wrapping
// it, so errors.Is(err, ErrTimeout) identifies the bounded-time failure mode
// across all layers (internal/sched wraps the same sentinel for per-session
// deadlines).
var ErrTimeout = errors.New("session: deadline exceeded")

// TimeoutError reports which role timed out doing what: the typed half of
// the deadline contract. It unwraps to ErrTimeout.
type TimeoutError struct {
	// Role is the party whose operation timed out.
	Role types.Role
	// Op is the operation that was waiting ("send", "receive").
	Op string
	// Peer is the role the operation was waiting on.
	Peer types.Role
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("session: role %s: %s %s %s: deadline exceeded", e.Role, e.Op, opPreposition(e.Op), e.Peer)
}

// Unwrap exposes the ErrTimeout sentinel to errors.Is.
//
//repro:keep errors.Is and errors.As call it through an anonymous interface
func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// opPreposition keeps TimeoutError messages readable ("send to b",
// "receive from a").
func opPreposition(op string) string {
	if op == "send" {
		return "to"
	}
	return "from"
}

// ProtocolError reports a process failing its protocol. It has two shapes:
//
//   - A conformance violation (Cause == nil): the role attempted Action in
//     State, which its verified FSM does not allow — the runtime analogue of
//     a Rust compile error.
//   - An abort (Cause != nil): the session was torn down on behalf of Role
//     with the given root cause. Every sibling's in-flight operation then
//     observes this error (through the channel layer's *CloseError), so a
//     party blocked on a message that will never arrive learns both *who*
//     failed and *why*: errors.As recovers the ProtocolError (the role),
//     errors.Is reaches the root cause through Unwrap.
type ProtocolError struct {
	Role   types.Role
	State  fsm.State
	Action fsm.Action
	// Cause is the root cause of an abort; nil for a conformance violation.
	Cause error
}

func (e *ProtocolError) Error() string {
	if e.Cause != nil {
		if e.Role != "" {
			return fmt.Sprintf("session: aborted on behalf of role %s: %v", e.Role, e.Cause)
		}
		return fmt.Sprintf("session: aborted: %v", e.Cause)
	}
	return fmt.Sprintf("session: role %s attempted %s in state %d, not allowed by its verified FSM", e.Role, e.Action, e.State)
}

// Unwrap exposes an abort's root cause to errors.Is/errors.As; nil for a
// conformance violation.
//
//repro:keep errors.Is and errors.As call it through an anonymous interface
func (e *ProtocolError) Unwrap() error { return e.Cause }

// route is the channel shape a network needs per ordered pair of roles:
// both directions of the non-blocking algebra plus cause-carrying teardown.
// Every substrate in package channel satisfies it.
type route = channel.Substrate

// Network connects a set of roles with one FIFO channel per ordered pair.
// Channels are persistent across the whole session, mirroring Rumpsteak's
// reusable channels (no per-interaction allocation).
//
// Routes live in a dense table indexed by the roles' positions: an
// endpoint sends on its row and receives on its column. A peer's position is
// a linear scan of the roles, which beats a map at a protocol's few roles.
//
// Substrate selection (see package channel for the full table):
//
//   - NewNetwork: unbounded lock-free SPSC rings (channel.RingQueue) — the
//     paper's asynchronous semantics on the fast-path substrate; the default.
//   - NewBoundedNetwork: k-bounded SPSC rings (channel.Ring) — the k-MC
//     execution model, with backpressure at exactly k messages.
//   - NewQueueNetwork: unbounded mutex queues (channel.Queue) — the MPMC
//     baseline the rings are benchmarked against.
//   - Session.ForkLocal: unbounded single-owner queues (channel.Local) for
//     an instance whose roles are all stepped by one goroutine at a time —
//     the scheduler's pooled instances.
//
// The SPSC networks rely on the session discipline for their single-producer
// single-consumer contract: route (a, b) is written only by a's process and
// read only by b's. To keep that contract enforceable, Endpoint is memoized
// per role — repeated calls return the same handle, whose exclusive
// ownership linearity (TrySession) then guards — so two goroutines cannot
// obtain independent producer handles onto one ring.
type Network struct {
	roles  []types.Role
	routes []route         // row-major: routes[from*len(roles)+to]; nil diagonal
	locals []channel.Local // the routes' backing array on a single-owner network (newLocalNetwork)

	aborted atomic.Bool // a cause-carrying teardown already ran

	mu  sync.Mutex
	eps []*Endpoint // memoized per-role endpoints, indexed like roles
}

// NewNetwork creates a network of unbounded lock-free rings connecting the
// roles — the default substrate.
func NewNetwork(roles ...types.Role) *Network {
	return newNetwork(roles, func() route { return channel.NewRingQueue() })
}

// NewQueueNetwork creates a network of unbounded mutex+cond queues: the
// MPMC baseline substrate (the pre-ring default), kept for head-to-head
// comparison and for callers that need multiple senders per route.
func NewQueueNetwork(roles ...types.Role) *Network {
	return newNetwork(roles, func() route { return channel.NewQueue() })
}

// NewBoundedNetwork creates a network whose channels hold at most k messages:
// sends block when a channel is full, exactly the execution model k-MC
// verifies. A system that is k-MC runs deadlock-free on a k-bounded network.
// Channels are lock-free SPSC rings with logical capacity exactly k.
func NewBoundedNetwork(k int, roles ...types.Role) *Network {
	return newNetwork(roles, func() route { return channel.NewRing(k) })
}

// NewCustomNetwork creates a network whose routes come from mk — one call
// per ordered role pair. This is the extension point for substrates the
// session package does not construct itself: wrapped substrates such as
// channel.Faulty (the fault-injection harness in internal/chaos builds its
// networks this way) and socket-backed routes (a netchan.Fabric's
// RouteMaker). The substrate must respect the SPSC discipline of the
// built-in networks if it is lock-free.
func NewCustomNetwork(mk func() channel.Substrate, roles ...types.Role) *Network {
	return newNetwork(roles, mk)
}

// newLocalNetwork creates a network of single-owner routes
// (channel.Local), all in one block: the network of an instance whose every
// role is stepped by one goroutine at a time (Session.ForkLocal).
func newLocalNetwork(roles ...types.Role) *Network {
	locals := make([]channel.Local, len(roles)*(len(roles)-1))
	i := 0
	n := newNetwork(roles, func() route {
		i++
		return &locals[i-1]
	})
	n.locals = locals
	return n
}

func newNetwork(roles []types.Role, mk func() route) *Network {
	k := len(roles)
	n := &Network{roles: roles, routes: make([]route, k*k)}
	for i := range roles {
		for j := range roles {
			if i != j {
				n.routes[i*k+j] = mk()
			}
		}
	}
	return n
}

// closeAll closes every route, releasing any blocked sender or receiver with
// channel.ErrClosed. Used to tear a session down after a process faults,
// so sibling processes do not block forever on a message that will never
// arrive.
func (n *Network) closeAll() {
	for _, q := range n.routes {
		if q != nil {
			q.Close()
		}
	}
}

// closeAllWith closes every route with a cause, so blocked and future
// parties observe why the session died instead of a bare channel.ErrClosed.
// The channel layer makes the first cause win per route; the network-level
// CAS below additionally keeps concurrent aborts from interleaving
// different causes across routes.
func (n *Network) closeAllWith(cause error) {
	if cause == nil || !n.aborted.CompareAndSwap(false, true) {
		n.closeAll()
		return
	}
	for _, q := range n.routes {
		if q != nil {
			q.CloseWithError(cause)
		}
	}
}

// abort tears the network down on behalf of a failing role: every route is
// closed with a *ProtocolError that carries the role and the root cause, so
// a sibling blocked in Receive (or probing with Try*) observes an error
// chain of channel.CloseError → ProtocolError → cause. errors.Is(err,
// channel.ErrClosed) still holds — an abort is still a close.
func (n *Network) abort(role types.Role, cause error) {
	n.closeAllWith(&ProtocolError{Role: role, Cause: cause})
}

// Reset restores every route to its fresh-channel state and rearms the
// abort CAS, so the network can carry a new protocol instance without
// reallocating — the substrate half of the pooled Fork path. It reports
// false when any route is not a channel.Resetter (the Faulty wrapper, a
// netchan half); callers then fall back to a fresh network. May only be
// called at a quiescent point: every endpoint's process has finished or
// been released, so no route has a concurrent sender or receiver.
func (n *Network) Reset() bool {
	if n.locals != nil {
		// A single-owner network: every route is a channel.Local, reset
		// directly, with no per-route type assertion.
		for i := range n.locals {
			n.locals[i].Reset()
		}
	} else {
		for _, q := range n.routes {
			if q == nil {
				continue
			}
			r, ok := q.(channel.Resetter)
			if !ok {
				return false
			}
			r.Reset()
		}
	}
	if n.aborted.Load() {
		n.aborted.Store(false)
	}
	return true
}

// Close tears the network down: every route is closed, so any process
// blocked on a message that will never arrive fails promptly with
// channel.ErrClosed instead of hanging. Session.Run does this automatically
// when a process faults; callers driving raw endpoints (benchmark harnesses,
// bottom-up experiments) use Close for the same first-error teardown.
func (n *Network) Close() { n.closeAll() }

// Endpoint returns the unmonitored endpoint for role — protocol conformance
// is then the caller's responsibility, as in the bottom-up workflow before
// verification. Monitored endpoints are obtained from a Session.
//
// Calls for the same role return the same endpoint: an endpoint is the
// role's single handle on its SPSC routes, so handing out two independent
// producer handles would void the rings' one-sender contract. Exclusive use
// of the one handle is the caller's (or TrySession's) responsibility, as
// before. A role the network does not know has no route to guard: it gets
// a fresh endpoint whose every operation fails with "no route".
func (n *Network) Endpoint(role types.Role) *Endpoint {
	i := slices.Index(n.roles, role)
	if i < 0 {
		return &Endpoint{role: role, net: n, me: i}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.eps == nil {
		n.eps = make([]*Endpoint, len(n.roles))
	}
	if n.eps[i] == nil {
		n.eps[i] = &Endpoint{role: role, net: n, me: i}
	}
	return n.eps[i]
}

// Endpoint is one participant's handle on the network. Endpoints are not safe
// for concurrent use: a session owns its endpoint exclusively (linearity).
type Endpoint struct {
	role types.Role
	net  *Network
	me   int // the role's position in net.roles; -1 if net does not know it
	// rows is the monitored machine's route plan on net (routePlan), which
	// a Stepper routes by; nil on an unmonitored endpoint.
	rows    [][]int
	scratch []channel.Message
	mon     *Monitor
	// inUse is the linearity guard. It is a CAS, not a plain flag: with
	// memoized endpoints it is the enforcement of the SPSC rings'
	// single-producer contract, so two concurrent TrySessions must not both
	// get past it.
	inUse atomic.Bool
	// deadline, when non-zero, bounds every blocking operation on the
	// endpoint: Send/Receive/SendN/ReceiveN park on the route's wait
	// between Try* probes with it, failing with a *TimeoutError once it
	// passes; zero waits without bound. Owned by the endpoint's process
	// like the rest of the endpoint state (not synchronized).
	deadline time.Time
}

// SetDeadline arms (or, with the zero time, clears) an absolute deadline for
// every subsequent blocking operation on the endpoint. Send/Receive and
// their batched forms always probe with the non-blocking Try* algebra and,
// between probes, park on the route until it is ready or closed
// (channel.Sender.WaitSend, channel.Receiver.WaitRecv); an armed deadline
// bounds that park. Each refused probe has no observable effect and the
// monitor commits only on success, so the Tier-2 safety argument is exactly
// the one stepping already relies on (see DESIGN.md, "Failure semantics"),
// and arming a deadline changes no code path, only the wait's bound. On
// expiry the operation fails with a *TimeoutError (errors.Is(err,
// ErrTimeout)) naming the role, the operation and the peer; the session is
// otherwise untouched — the caller decides whether to retry with a later
// deadline or Abort the session.
//
// Like every other endpoint operation, SetDeadline is owned by the
// endpoint's process: arm it before handing the endpoint to Run/Drive or
// from within the process itself, not concurrently with in-flight
// operations.
func (e *Endpoint) SetDeadline(t time.Time) { e.deadline = t }

// Role returns the endpoint's role.
func (e *Endpoint) Role() types.Role { return e.role }

// Monitor returns the endpoint's monitor, or nil when unmonitored.
func (e *Endpoint) Monitor() *Monitor { return e.mon }

// peerRoute returns the route the endpoint sends to peer on (dir
// fsm.Send) or receives from peer on (fsm.Recv): row me of the route table
// for a send, column me for a receive.
func (e *Endpoint) peerRoute(dir fsm.Dir, peer types.Role) (route, error) {
	if x := routeIndex(dir, e.me, slices.Index(e.net.roles, peer), len(e.net.roles)); x >= 0 {
		return e.net.routes[x], nil
	}
	from, to := e.role, peer
	if dir == fsm.Recv {
		from, to = peer, e.role
	}
	return nil, fmt.Errorf("session: no route %s -> %s", from, to)
}

// routeIndex returns the index in the route table of a network over k roles
// of the route the role at position me sends to (dir fsm.Send) or receives
// from (fsm.Recv) the role at position j, or -1 when there is none: either
// position is -1 (a role the network does not know), or they are equal.
func routeIndex(dir fsm.Dir, me, j, k int) int {
	if dir == fsm.Recv {
		me, j = j, me
	}
	if me < 0 || j < 0 || me == j {
		return -1
	}
	return me*k + j
}

// Send delivers label(value) to the given role. It never blocks on the
// default unbounded substrate (asynchronous semantics); on a bounded network
// it blocks while the route is full. With a monitor attached, the action
// must be allowed by the FSM and a non-nil payload must inhabit the declared
// sort.
//
// Send is TrySendMsg and, while the probe would block, a park on the route
// (channel.Sender.WaitSend) bounded by the endpoint's deadline. Every
// refused probe left no trace (the monitor rewinds on would-block), so the
// committed run is indistinguishable from a send that never waited, and the
// wait is the substrate's own park, woken by the receiver's progress.
func (e *Endpoint) Send(to types.Role, label types.Label, value any) error {
	for {
		// Try* on an Endpoint reports a refusal as the bare ErrWouldBlock
		// sentinel, so the probe loop compares directly instead of paying
		// errors.Is (a reflect call) on every accepted message.
		err := e.TrySendMsg(to, label, value)
		if err != ErrWouldBlock {
			return err
		}
		// A would-block probe resolved the route, so this lookup succeeds.
		q, _ := e.peerRoute(fsm.Send, to)
		if q.WaitSend(e.deadline) == channel.ErrDeadline {
			return &TimeoutError{Role: e.role, Op: "send", Peer: to}
		}
		// Anything else — ready, or closed — is for the next probe to
		// report.
	}
}

// Receive blocks until a message from the given role arrives and returns its
// label and payload. With a monitor attached, the label is checked against
// the FSM's expected inputs — an unexpected label faults the session rather
// than being silently consumed. Like Send, it is TryRecvMsg and a park on
// the route (channel.Receiver.WaitRecv) bounded by the endpoint's deadline.
func (e *Endpoint) Receive(from types.Role) (types.Label, any, error) {
	for {
		label, value, err := e.TryRecvMsg(from)
		if err != ErrWouldBlock {
			return label, value, err
		}
		q, _ := e.peerRoute(fsm.Recv, from)
		if q.WaitRecv(e.deadline) == channel.ErrDeadline {
			return "", nil, &TimeoutError{Role: e.role, Op: "receive", Peer: from}
		}
	}
}

// TrySendMsg is the non-blocking Send: it delivers label(value) to the given
// role if the outgoing route has room, and returns ErrWouldBlock — with no
// observable effect — when it does not. With a monitor attached the action is
// validated first (an ill-typed or protocol-violating send faults exactly as
// in Send), but the FSM step commits only when the substrate accepts the
// message: a would-block rewinds the monitor, so retrying later replays the
// same transition. This ordering is what keeps the Tier-2 safety argument
// intact under stepping (see DESIGN.md, "Non-blocking stepping and the
// scheduler").
func (e *Endpoint) TrySendMsg(to types.Role, label types.Label, value any) error {
	if e.mon == nil {
		q, err := e.peerRoute(fsm.Send, to)
		if err != nil {
			return err
		}
		ok, err := q.TrySend(channel.Message{Label: label, Value: value})
		if err != nil {
			return err
		}
		if !ok {
			return ErrWouldBlock
		}
		return nil
	}
	start := e.mon.cur
	sort, err := e.mon.stepSort(fsm.Action{Dir: fsm.Send, Peer: to, Label: label})
	if err != nil {
		return err
	}
	if !sortAccepts(sort, value) {
		e.mon.cur = start
		return &SortError{Role: e.role, Act: fsm.Action{Dir: fsm.Send, Peer: to, Label: label, Sort: sort}, Value: value}
	}
	q, err := e.peerRoute(fsm.Send, to)
	if err != nil {
		e.mon.cur = start
		return err
	}
	ok, err := q.TrySend(channel.Message{Label: label, Value: value})
	if err != nil {
		e.mon.cur = start
		return err
	}
	if !ok {
		e.mon.cur = start
		return ErrWouldBlock
	}
	return nil
}

// TryRecvMsg is the non-blocking Receive: it returns the next message from
// the given role if one has already arrived, and ErrWouldBlock — with no
// observable effect — when none has. As in Receive, the monitor steps only
// after the substrate delivered a message (commit on success); an unexpected
// label then faults the session rather than being silently consumed.
func (e *Endpoint) TryRecvMsg(from types.Role) (types.Label, any, error) {
	q, err := e.peerRoute(fsm.Recv, from)
	if err != nil {
		return "", nil, err
	}
	m, ok, err := q.TryRecv()
	if err != nil {
		return "", nil, err
	}
	if !ok {
		return "", nil, ErrWouldBlock
	}
	if e.mon != nil {
		if err := e.mon.step(fsm.Action{Dir: fsm.Recv, Peer: from, Label: m.Label}); err != nil {
			return "", nil, err
		}
	}
	return m.Label, m.Value, nil
}

// SendN delivers len(values) messages, all labelled label, to the given role
// — the batched counterpart of Send for the runs of same-label messages the
// paper's message-reordering optimisation creates (an unrolled source sends
// u values back to back; see cmd/fig6). The monitor is amortised: once the
// matched transition is a self-loop the FSM scan is skipped for the rest of
// the run (payload sorts are still checked), and substrates implementing
// channel.BatchSender publish the run with one atomic store per free window
// rather than one per message.
func (e *Endpoint) SendN(to types.Role, label types.Label, values []any) error {
	if len(values) == 0 {
		return nil
	}
	if !e.deadline.IsZero() {
		// Deadline-armed batches decay to per-message Sends: each message
		// commits (or times out) individually, so a mid-batch expiry
		// reports exactly how far the batch got through the monitor — the
		// same partial-prefix semantics a closed route gives SendN.
		for _, v := range values {
			if err := e.Send(to, label, v); err != nil {
				return err
			}
		}
		return nil
	}
	if e.mon != nil {
		// Validate the whole batch up front; on rejection, rewind the
		// monitor so it never runs ahead of a channel that carried nothing
		// (SendN is all-or-nothing at validation time).
		start := e.mon.cur
		act := fsm.Action{Dir: fsm.Send, Peer: to, Label: label}
		var sort types.Sort
		selfLoop := false
		for _, v := range values {
			if !selfLoop {
				prev := e.mon.cur
				s, err := e.mon.stepSort(act)
				if err != nil {
					e.mon.cur = start
					return err
				}
				sort = s
				selfLoop = e.mon.cur == prev
			}
			if !sortAccepts(sort, v) {
				e.mon.cur = start
				act.Sort = sort
				return &SortError{Role: e.role, Act: act, Value: v}
			}
		}
	}
	q, err := e.peerRoute(fsm.Send, to)
	if err != nil {
		return err
	}
	ms := e.scratchFor(len(values))
	for i, v := range values {
		ms[i] = channel.Message{Label: label, Value: v}
	}
	defer e.releaseScratch(ms)
	if bs, ok := q.(channel.BatchSender); ok {
		for sent := 0; ; {
			n, err := bs.TrySendN(ms[sent:])
			if sent += n; err != nil || sent == len(ms) {
				return err
			}
			if err := q.WaitSend(time.Time{}); err != nil {
				return err
			}
		}
	}
	for _, m := range ms {
		if err := channel.Send(q, m, time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// ReceiveN receives exactly len(dst) messages from the given role, all of
// which must carry the label want, storing their payloads into dst. Like
// SendN it amortises the monitor over self-loop runs and drains substrates
// implementing channel.BatchReceiver in whole available windows. Between
// empty probes it parks on the route, bounded by the endpoint's deadline;
// the monitor has then stepped over exactly the messages received, so a
// timed-out batch is a received prefix, as a closed route leaves it.
func (e *Endpoint) ReceiveN(from types.Role, want types.Label, dst []any) error {
	if len(dst) == 0 {
		return nil
	}
	q, err := e.peerRoute(fsm.Recv, from)
	if err != nil {
		return err
	}
	ms := e.scratchFor(len(dst))
	defer e.releaseScratch(ms)
	br, batched := q.(channel.BatchReceiver)
	act := fsm.Action{Dir: fsm.Recv, Peer: from, Label: want}
	selfLoop := false
	got := 0
	for got < len(dst) {
		n, ok := 0, false
		if batched {
			n, err = br.TryRecvN(ms[got:])
		} else if ms[got], ok, err = q.TryRecv(); ok {
			n = 1
		}
		if err != nil {
			return err
		}
		if n == 0 {
			if q.WaitRecv(e.deadline) == channel.ErrDeadline {
				return &TimeoutError{Role: e.role, Op: "receive", Peer: from}
			}
			continue
		}
		// Validate each window as it arrives — a protocol deviation
		// mid-batch must fault immediately, not leave the receiver blocked
		// waiting for messages a misbehaving peer will never send.
		for i := got; i < got+n; i++ {
			m := ms[i]
			if m.Label != want {
				// The message is consumed: the monitor steps over it, so a
				// label the machine rejects is a *ProtocolError, as from
				// TryRecvMsg.
				if e.mon != nil {
					if err := e.mon.step(fsm.Action{Dir: fsm.Recv, Peer: from, Label: m.Label}); err != nil {
						return err
					}
				}
				return fmt.Errorf("session: role %s expected label %s from %s, got %s (message %d of batch)", e.role, want, from, m.Label, i)
			}
			if e.mon != nil && !selfLoop {
				prev := e.mon.cur
				if err := e.mon.step(act); err != nil {
					return err
				}
				selfLoop = e.mon.cur == prev
			}
			dst[i] = m.Value
		}
		got += n
	}
	return nil
}

// scratchFor returns a reusable []channel.Message of length n, growing the
// endpoint's scratch buffer on first use so steady-state batches do not
// allocate.
func (e *Endpoint) scratchFor(n int) []channel.Message {
	if cap(e.scratch) < n {
		e.scratch = make([]channel.Message, n)
	}
	return e.scratch[:n]
}

// releaseScratch drops payload references so batches do not pin their
// values beyond the call.
func (e *Endpoint) releaseScratch(ms []channel.Message) {
	for i := range ms {
		ms[i] = channel.Message{}
	}
}

// ReceiveLabel receives from the given role and checks the label, returning
// only the payload: the common case for protocols without branching.
func (e *Endpoint) ReceiveLabel(from types.Role, want types.Label) (any, error) {
	label, value, err := e.Receive(from)
	if err != nil {
		return nil, err
	}
	if label != want {
		return nil, fmt.Errorf("session: role %s expected label %s from %s, got %s", e.role, want, from, label)
	}
	return value, nil
}

// Monitor tracks an endpoint's progress through its verified FSM.
type Monitor struct {
	fsm *fsm.FSM
	cur fsm.State
}

// NewMonitor returns a monitor at the machine's initial state.
func NewMonitor(m *fsm.FSM) *Monitor { return &Monitor{fsm: m, cur: m.Initial()} }

// State returns the current FSM state.
func (m *Monitor) State() fsm.State { return m.cur }

// Terminal reports whether the monitor sits at a final state.
func (m *Monitor) Terminal() bool { return m.fsm.IsFinal(m.cur) }

// step advances the monitor over act; direction, peer and label must match a
// transition of the verified machine.
func (m *Monitor) step(act fsm.Action) error {
	_, err := m.stepSort(act)
	return err
}

// stepSort is step, additionally returning the matched transition's declared
// payload sort so that the endpoint can check the dynamic payload.
func (m *Monitor) stepSort(act fsm.Action) (types.Sort, error) {
	ts := m.fsm.Transitions(m.cur)
	i := fsm.Match(ts, &act)
	if i < 0 {
		return "", &ProtocolError{Role: m.fsm.Role(), State: m.cur, Action: act}
	}
	m.cur = ts[i].To
	return ts[i].Act.Sort, nil
}

// reset rewinds the monitor for a fresh session over the same protocol.
func (m *Monitor) reset() { m.cur = m.fsm.Initial() }

// TrySession runs f with exclusive ownership of the endpoint, mirroring
// Rumpsteak's try_session (§2.1): the endpoint is consumed for the duration
// (reuse faults with ErrLinearity), and when f returns nil the monitor must
// sit at a terminal state — a process that abandons its protocol mid-way
// returns ErrIncomplete, the analogue of Rust's "closure does not return
// End". Endpoints of infinite protocols never reach a terminal state, so
// their processes run forever or return an error (for benchmarks, a sentinel
// such as ErrStopped).
func TrySession(e *Endpoint, f func(*Endpoint) error) error {
	if !e.inUse.CompareAndSwap(false, true) {
		return ErrLinearity
	}
	defer e.inUse.Store(false)
	if e.mon != nil {
		e.mon.reset()
	}
	if err := f(e); err != nil {
		return err
	}
	if e.mon != nil && !e.mon.Terminal() {
		return fmt.Errorf("%w: role %s stopped in state %d", ErrIncomplete, e.role, e.mon.State())
	}
	return nil
}

// ErrStopped is a conventional sentinel for processes of infinite protocols
// that deliberately stop after a bounded number of iterations (benchmarks,
// examples). TrySession treats it as an error, so callers filter it.
var ErrStopped = errors.New("session: process stopped deliberately")

// Session is a verified protocol instance: a network plus one verified FSM
// per role. Endpoints handed out by a Session are monitored.
type Session struct {
	net  *Network
	plan *plan
	// mk is the substrate constructor Rewire installed, which Fork reuses;
	// nil while the session runs on the default network.
	mk func(roles ...types.Role) *Network

	mu sync.Mutex
	// eps memoizes the monitored endpoints, indexed like plan.roles; nil
	// until the first Endpoint call.
	eps []*Endpoint
	// notify is the hook SetNotify installed, which Abort runs once the
	// routes are closed.
	notify func()
}

// TopDown builds a session via the top-down workflow (Fig. 1a): the global
// type is projected onto every role; roles present in optimised get their
// machine verified against the projection with the asynchronous subtyping
// algorithm; all other roles use their projections directly.
func TopDown(g types.Global, optimised map[types.Role]*fsm.FSM, opts core.Options) (*Session, error) {
	projs, err := project.ProjectFSMs(g)
	if err != nil {
		return nil, err
	}
	fsms := map[types.Role]*fsm.FSM{}
	for role, proj := range projs {
		m := proj
		if opt, ok := optimised[role]; ok {
			res, err := core.Check(opt, proj, opts)
			if err != nil {
				return nil, fmt.Errorf("session: verifying %s: %w", role, err)
			}
			if !res.OK {
				return nil, fmt.Errorf("session: optimised FSM for %s is not an asynchronous subtype of its projection", role)
			}
			m = opt
		}
		fsms[role] = m
	}
	for role := range optimised {
		if _, ok := projs[role]; !ok {
			return nil, fmt.Errorf("session: optimised FSM for %s, which is not a participant", role)
		}
	}
	return newSession(fsms), nil
}

// Hybrid builds a session via the hybrid workflow (Fig. 1c): like TopDown,
// but every role's machine is supplied by the developer (serialised from
// their hand-written APIs) and verified against its projection.
func Hybrid(g types.Global, apis map[types.Role]*fsm.FSM, opts core.Options) (*Session, error) {
	projs, err := project.ProjectFSMs(g)
	if err != nil {
		return nil, err
	}
	if len(apis) != len(projs) {
		return nil, fmt.Errorf("session: hybrid workflow needs an API for every role (%d given, %d participants)", len(apis), len(projs))
	}
	return TopDown(g, apis, opts)
}

// BottomUp builds a session via the bottom-up workflow (Fig. 1b): the
// developer-supplied machines are verified globally with k-multiparty
// compatibility.
func BottomUp(k int, machines ...*fsm.FSM) (*Session, error) {
	sys, err := kmc.NewSystem(machines...)
	if err != nil {
		return nil, err
	}
	res := kmc.Check(sys, k)
	if !res.OK {
		return nil, fmt.Errorf("session: system is not %d-MC: %s", k, res.Violation.Error())
	}
	fsms := map[types.Role]*fsm.FSM{}
	for _, m := range machines {
		fsms[m.Role()] = m
	}
	return newSession(fsms), nil
}

// plan is a verified protocol's role table, shared by the session and every
// fork: the roles sorted once, and per position the role's verified machine
// and its route plan on a network over roles, the order every fork's
// network keeps.
type plan struct {
	roles []types.Role
	fsms  []*fsm.FSM
	rows  [][][]int
}

// newSession builds a session over the verified machines on the default
// network, with the plan it and all its forks share.
func newSession(fsms map[types.Role]*fsm.FSM) *Session {
	p := &plan{roles: make([]types.Role, 0, len(fsms))}
	for r := range fsms {
		p.roles = append(p.roles, r)
	}
	slices.Sort(p.roles)
	for _, r := range p.roles {
		p.fsms = append(p.fsms, fsms[r])
		p.rows = append(p.rows, routePlan(fsms[r], p.roles, len(p.rows)))
	}
	return &Session{net: NewNetwork(p.roles...), plan: p}
}

// routePlan resolves a machine's routes for the endpoint at position me of
// a network over roles: plan[s][i] is the routeIndex of the i-th transition
// out of state s.
func routePlan(m *fsm.FSM, roles []types.Role, me int) [][]int {
	plan := make([][]int, m.NumStates())
	for s := range plan {
		ts := m.Transitions(fsm.State(s))
		row := make([]int, len(ts))
		for i, t := range ts {
			row[i] = routeIndex(t.Act.Dir, me, slices.Index(roles, t.Act.Peer), len(roles))
		}
		plan[s] = row
	}
	return plan
}

// Roles returns the session's participants, in the order fixed at
// verification: the same for the session and every fork of it.
func (s *Session) Roles() []types.Role { return slices.Clone(s.plan.roles) }

// Rewire replaces the session's network with one built by mk over the same
// roles, and returns the session. Verification is untouched — the point is
// to run one verified protocol on a different substrate: a BottomUp session
// checked with k-MC can Rewire to a k-bounded network (the execution model
// the check guarantees deadlock-freedom for), and benchmarks Rewire between
// the ring default and NewQueueNetwork for head-to-head comparison.
// Endpoints handed out before the call keep the old network; the session's
// memoized endpoints are dropped so the next Endpoint/Run resolves routes
// on the new substrate.
func (s *Session) Rewire(mk func(roles ...types.Role) *Network) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mk = mk
	s.net = mk(s.plan.roles...)
	s.eps = nil
	return s
}

// FSM returns the verified machine for a role, or nil if the role is
// unknown.
func (s *Session) FSM(role types.Role) *fsm.FSM {
	if i := slices.Index(s.plan.roles, role); i >= 0 {
		return s.plan.fsms[i]
	}
	return nil
}

// Fork returns a fresh instance of the same verified protocol: the machines
// (and the verification they passed) are shared, the network and endpoints
// are new. The fork runs on the same substrate as its parent — the default
// ring network (channel.RingQueue routes), or what the parent was Rewired
// onto: a session Rewired onto, say, a k-bounded network forks k-bounded
// instances. This is the cheap way to run N concurrent copies of one
// protocol — verify once, fork per session — and is what the internal/sched
// throughput benchmarks and examples/manysessions do at 10⁴–10⁵ sessions.
func (s *Session) Fork() *Session { return s.forkOr(NewNetwork) }

// ForkLocal is Fork for an instance whose roles are all stepped by one
// goroutine at a time — the scheduler's pooled instances
// (sched.GoSessionPooled), handed between workers only whole and under a
// lock. A fork of a session on the default network then gets single-owner
// routes (channel.Local): no padding, no atomic publication, no wake on
// send, and a few hundred bytes per instance instead of a few kilobytes.
// Such an instance must never run a role on a goroutine of its own
// (Session.Run, Drive): a Local route has no cross-goroutine hand-off, so
// a receive waiting on another goroutine's send would wait for ever. A
// Rewired session forks on its own substrate, exactly as Fork does, so a
// k-bounded, fault-injecting or socket-backed base keeps its meaning.
func (s *Session) ForkLocal() *Session { return s.forkOr(newLocalNetwork) }

// forkOr returns a new instance of s on the substrate Rewire installed, or
// on a network built by def when s runs on the default one.
func (s *Session) forkOr(def func(roles ...types.Role) *Network) *Session {
	s.mu.Lock()
	mk := s.mk
	s.mu.Unlock()
	build := def
	if mk != nil {
		build = mk
	}
	return &Session{net: build(s.plan.roles...), plan: s.plan, mk: mk}
}

// Reset restores a finished (or aborted) instance for reuse: every route of
// its network returns to fresh-channel state and every memoized endpoint's
// deadline is cleared, so the next TrySession/NewStepper on it behaves
// exactly like one on a fresh Fork — without allocating a network, routes,
// endpoints or monitors. The monitors themselves rewind at claim time
// (TrySession and NewStepper both reset them), so Reset does not touch
// them.
//
// It reports false when the substrate cannot be reused (see Network.Reset);
// the instance is then dead and the caller forks a fresh one. May only be
// called at a quiescent point: no endpoint of this instance is claimed, no
// operation in flight, and no concurrent Endpoint or Rewire call — so it
// reads the network and the endpoints without taking the session's lock.
// The scheduler's pooled path (sched.GoSessionPooled) guarantees this by
// recycling an instance only after its job finished cleanly.
func (s *Session) Reset() bool {
	if !s.net.Reset() {
		return false
	}
	for _, ep := range s.eps {
		if ep != nil {
			ep.deadline = time.Time{}
		}
	}
	return true
}

// Endpoint returns the monitored endpoint for role. Like Network.Endpoint,
// calls for the same role return the same endpoint (one handle per role —
// the SPSC single-producer contract); TrySession guards its exclusive use
// and resets the monitor between sessions.
func (s *Session) Endpoint(role types.Role) (*Endpoint, error) {
	i := slices.Index(s.plan.roles, role)
	if i < 0 {
		return nil, fmt.Errorf("session: unknown role %s", role)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eps == nil {
		s.eps = make([]*Endpoint, len(s.plan.roles))
	}
	if ep := s.eps[i]; ep != nil {
		return ep, nil
	}
	m := s.plan.fsms[i]
	ep := &Endpoint{role: role, net: s.net, me: slices.Index(s.net.roles, role), mon: NewMonitor(m), rows: s.plan.rows[i]}
	if !slices.Equal(s.net.roles, s.plan.roles) {
		ep.rows = routePlan(m, s.net.roles, ep.me)
	}
	s.eps[i] = ep
	return ep, nil
}

// Abort tears the session down with a cause: every route of its network is
// closed carrying a *ProtocolError that wraps cause, so every sibling's
// in-flight (or future) operation fails with an error chain of
// channel.CloseError → ProtocolError → cause rather than hanging or seeing a
// bare channel.ErrClosed. The first abort wins; Abort is safe to call from
// any goroutine (a supervisor, a context watcher, a chaos harness). Once
// the routes are closed it runs the SetNotify hook, outside the session's
// lock, so a stepped or scheduled run parked on routes without a hook of
// their own sees the abort at once rather than at its deadline.
func (s *Session) Abort(cause error) {
	s.mu.Lock()
	net, notify := s.net, s.notify
	s.mu.Unlock()
	net.abort("", cause)
	if notify != nil {
		notify()
	}
}

// SetNotify installs fn as the readiness hook of every route of the
// session's network that has one — a netchan route, or a channel.Faulty
// wrapping one — so a stepped runner parked on the session learns of each
// delivery, close and freed send slot (see netchan.Options.Notify for when
// the hook runs and which locks it must not need). In-memory substrates
// have no hook: only the session's own steps move them, and Abort, which
// runs fn after closing the routes.
func (s *Session) SetNotify(fn func()) {
	s.mu.Lock()
	net := s.net
	s.notify = fn
	s.mu.Unlock()
	for _, q := range net.routes {
		if n, ok := q.(interface{ SetNotify(func()) }); ok {
			n.SetNotify(fn)
		}
	}
}

// Run executes one process per role concurrently, each under TrySession, and
// returns the first error (ErrStopped is filtered: deliberately stopped
// benchmark loops are not failures). When a process faults, the session's
// routes are closed *with the failure as cause* — on behalf of the faulting
// role — so sibling processes blocked on a message that will never arrive
// fail promptly with the full error chain (who failed and why) instead of
// deadlocking the run or observing a cause-less close.
func (s *Session) Run(procs map[types.Role]func(*Endpoint) error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for role, f := range procs {
		ep, err := s.Endpoint(role)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(ep *Endpoint, f func(*Endpoint) error) {
			defer wg.Done()
			if err := TrySession(ep, f); err != nil && !errors.Is(err, ErrStopped) {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("role %s: %w", ep.Role(), err)
					s.net.abort(ep.Role(), err)
				}
				mu.Unlock()
			}
		}(ep, f)
	}
	wg.Wait()
	return first
}

// RunContext is Run bound to a context: when ctx is cancelled or its
// deadline passes, the session is aborted with ctx.Err() as the root cause,
// so every process blocked in a session operation fails promptly with a
// typed error (errors.Is(err, context.Canceled) or context.DeadlineExceeded
// through the ProtocolError chain). The watcher goroutine is always reaped
// before RunContext returns.
//
//repro:keep the README failure table documents it as the context-bound Run
func (s *Session) RunContext(ctx context.Context, procs map[types.Role]func(*Endpoint) error) error {
	if ctx.Done() == nil {
		return s.Run(procs)
	}
	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		select {
		case <-ctx.Done():
			s.Abort(ctx.Err())
		case <-stop:
		}
	}()
	err := s.Run(procs)
	close(stop)
	watcher.Wait()
	return err
}
