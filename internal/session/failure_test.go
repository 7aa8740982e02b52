package session

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fsm"
	"repro/internal/types"
)

// This file pins the session layer's failure semantics: cause-carrying
// aborts (Run threads the faulting role and root cause through the network
// teardown — the regression for Network.closeAll losing the cause), endpoint
// deadlines (park-with-deadline over the Try* algebra), and the
// context-bound Run/Drive variants.

var errRootCause = errors.New("disk on fire")

// assertAbortChain checks the full chain of a cause-carrying session abort:
// still a close (errors.Is ErrClosed), typed as an abort naming the role
// (errors.As *ProtocolError), and unwrapping to the root cause.
func assertAbortChain(t *testing.T, err error, wantRole types.Role, root error) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected an abort error, got nil")
	}
	if !errors.Is(err, channel.ErrClosed) {
		t.Errorf("errors.Is(err, channel.ErrClosed) = false for %v", err)
	}
	if !errors.Is(err, root) {
		t.Errorf("errors.Is(err, root cause) = false for %v", err)
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("errors.As(err, *ProtocolError) = false for %v", err)
	}
	if pe.Role != wantRole {
		t.Errorf("ProtocolError.Role = %q, want %q", pe.Role, wantRole)
	}
}

// TestRunAbortCarriesRoleAndCause is the satellite regression test: when a
// process faults under Run, a sibling blocked in Receive learns who failed
// and why through the teardown, not a bare ErrClosed.
func TestRunAbortCarriesRoleAndCause(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("q!req.q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p?req.p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	qErr := make(chan error, 1)
	runErr := s.Run(map[types.Role]func(*Endpoint) error{
		"p": func(e *Endpoint) error {
			return errRootCause // fault before sending anything
		},
		"q": func(e *Endpoint) error {
			_, _, err := e.Receive("p") // parks: p never sends
			qErr <- err
			return err
		},
	})
	if runErr == nil {
		t.Fatal("Run returned nil despite a faulting process")
	}
	assertAbortChain(t, <-qErr, "p", errRootCause)
}

// TestSessionAbortFromOutside pins the supervisor-facing Abort: any
// goroutine can kill the session with a cause, and a blocked party observes
// the chain (with no role — the abort came from outside the protocol).
func TestSessionAbortFromOutside(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := s.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(time.Millisecond)
		s.Abort(errRootCause)
	}()
	_, _, rerr := ep.Receive("q")
	assertAbortChain(t, rerr, "", errRootCause)
}

// TestReceiveDeadlineTimesOut pins the core deadline contract: a Receive
// with no sender fails with a *TimeoutError naming role, op and peer, the
// sentinel ErrTimeout is reachable with errors.Is, and the monitor did not
// move (the timed-out op had no observable effect).
func TestReceiveDeadlineTimesOut(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := s.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	start := ep.Monitor().State()
	ep.SetDeadline(time.Now().Add(10 * time.Millisecond))
	_, _, rerr := ep.Receive("q")
	if !errors.Is(rerr, ErrTimeout) {
		t.Fatalf("errors.Is(err, ErrTimeout) = false for %v", rerr)
	}
	var te *TimeoutError
	if !errors.As(rerr, &te) {
		t.Fatalf("errors.As(err, *TimeoutError) = false for %v", rerr)
	}
	if te.Role != "p" || te.Op != "receive" || te.Peer != "q" {
		t.Errorf("TimeoutError = %+v, want role p receive from q", te)
	}
	if got := ep.Monitor().State(); got != start {
		t.Errorf("monitor moved across a timed-out receive: %d -> %d", start, got)
	}
	// The session is still usable: clear the deadline, let the peer send,
	// and the same receive succeeds.
	ep.SetDeadline(time.Time{})
	eq, err := s.Endpoint("q")
	if err != nil {
		t.Fatal(err)
	}
	if err := eq.Send("p", "rep", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ep.Receive("q"); err != nil {
		t.Fatalf("receive after recovered timeout: %v", err)
	}
}

// TestSendDeadlineTimesOutOnFullRoute pins the send half on a bounded
// network: with the route full and no receiver draining, an armed deadline
// turns the blocking send into a typed timeout.
func TestSendDeadlineTimesOutOnFullRoute(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("mu x.q!req.x"))
	q := fsm.MustFromLocal("q", types.MustParse("mu x.p?req.x"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	s.Rewire(func(roles ...types.Role) *Network { return NewBoundedNetwork(1, roles...) })
	ep, err := s.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send("q", "req", nil); err != nil { // fills the k=1 route
		t.Fatal(err)
	}
	ep.SetDeadline(time.Now().Add(10 * time.Millisecond))
	start := ep.Monitor().State()
	serr := ep.Send("q", "req", nil)
	if !errors.Is(serr, ErrTimeout) {
		t.Fatalf("send on a full route with deadline: %v, want ErrTimeout", serr)
	}
	var te *TimeoutError
	if !errors.As(serr, &te) || te.Op != "send" || te.Peer != "q" {
		t.Errorf("TimeoutError = %+v, want send to q", te)
	}
	if got := ep.Monitor().State(); got != start {
		t.Errorf("monitor moved across a timed-out send: %d -> %d", start, got)
	}
}

// TestBatchDeadlineTimesOut pins SendN/ReceiveN under a deadline: the
// batched forms decay to per-message park-with-deadline and report the
// typed timeout.
func TestBatchDeadlineTimesOut(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("mu x.q!req.x"))
	q := fsm.MustFromLocal("q", types.MustParse("mu x.p?req.x"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	s.Rewire(func(roles ...types.Role) *Network { return NewBoundedNetwork(1, roles...) })
	ep, err := s.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	eq, err := s.Endpoint("q")
	if err != nil {
		t.Fatal(err)
	}
	ep.SetDeadline(time.Now().Add(10 * time.Millisecond))
	serr := ep.SendN("q", "req", make([]any, 8)) // route holds 1: must time out mid-batch
	if !errors.Is(serr, ErrTimeout) {
		t.Fatalf("SendN over a full route with deadline: %v, want ErrTimeout", serr)
	}
	// Drain what was delivered so the receive side can then time out on an
	// empty route.
	for {
		if _, _, err := eq.TryRecvMsg("p"); err != nil {
			break
		}
	}
	eq.SetDeadline(time.Now().Add(10 * time.Millisecond))
	start := eq.Monitor().State()
	rerr := eq.ReceiveN("p", "req", make([]any, 4))
	var te *TimeoutError
	if !errors.As(rerr, &te) || te.Op != "receive" || te.Peer != "p" {
		t.Fatalf("ReceiveN on an empty route with deadline: %v, want a *TimeoutError receiving from p", rerr)
	}
	if got := eq.Monitor().State(); got != start {
		t.Errorf("monitor moved across a timed-out ReceiveN: %d -> %d", start, got)
	}
}

// TestSendNCloseMidBatch pins SendN's batch loop (TrySendN, then WaitSend
// while the route is full) against a teardown: a batch waiting on a full
// bounded route is released by the abort with its cause, and the prefix it
// sent before stays receivable ahead of that cause.
func TestSendNCloseMidBatch(t *testing.T) {
	n := NewBoundedNetwork(2, "a", "b")
	a, b := n.Endpoint("a"), n.Endpoint("b")
	done := make(chan error, 1)
	go func() { done <- a.SendN("b", "v", []any{0, 1, 2, 3, 4}) }()
	q, _ := a.peerRoute(fsm.Send, "b")
	for q.(*channel.Ring).Len() < 2 {
		time.Sleep(time.Millisecond)
	}
	n.abort("b", errRootCause)
	assertAbortChain(t, <-done, "b", errRootCause)
	for i := 0; i < 2; i++ {
		if _, v, err := b.Receive("a"); err != nil || v != i {
			t.Fatalf("prefix message %d = (%v, %v)", i, v, err)
		}
	}
	_, _, err := b.Receive("a")
	assertAbortChain(t, err, "b", errRootCause)
}

// TestDeadlineUnfiredCompletesCleanly pins that an armed-but-unfired
// deadline changes nothing observable: the protocol completes exactly as
// without one.
func TestDeadlineUnfiredCompletesCleanly(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("q!req.q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p?req.p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	err = s.Run(map[types.Role]func(*Endpoint) error{
		"p": func(e *Endpoint) error {
			e.SetDeadline(deadline)
			if err := e.Send("q", "req", 1); err != nil {
				return err
			}
			_, _, err := e.Receive("q")
			return err
		},
		"q": func(e *Endpoint) error {
			e.SetDeadline(deadline)
			if _, _, err := e.Receive("p"); err != nil {
				return err
			}
			return e.Send("p", "rep", 2)
		},
	})
	if err != nil {
		t.Fatalf("run with unfired deadlines: %v", err)
	}
}

// TestRunContextCancelAborts pins RunContext: cancelling the context aborts
// the session, so a party blocked in Receive fails with a chain reaching
// context.Canceled.
func TestRunContextCancelAborts(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	rerr := s.RunContext(ctx, map[types.Role]func(*Endpoint) error{
		"p": func(e *Endpoint) error {
			_, _, err := e.Receive("q")
			return err
		},
		"q": func(e *Endpoint) error {
			// Never send: only the cancellation can end the run. ErrStopped
			// is filtered, so the reported error is p's abort chain.
			<-ctx.Done()
			return ErrStopped
		},
	})
	if rerr == nil {
		t.Fatal("RunContext returned nil despite cancellation")
	}
	if !errors.Is(rerr, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", rerr)
	}
	var pe *ProtocolError
	if !errors.As(rerr, &pe) {
		t.Errorf("errors.As(err, *ProtocolError) = false for %v", rerr)
	}
}

// TestDriveDeadline pins Drive under an armed endpoint deadline: driving
// against a silent peer times out typed instead of hanging.
func TestDriveDeadline(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := s.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	ep.SetDeadline(time.Now().Add(10 * time.Millisecond))
	if err := Drive(ep, s.FSM("p"), FirstBranch{}, 16); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Drive against a silent peer: %v, want ErrTimeout", err)
	}
}

// TestDriveWaitTimeoutNamesRoleOpPeer pins the error of Drive's wait: past
// the endpoint's deadline it is the *TimeoutError a deadline-armed Receive
// or Send builds, naming the role, the operation and the peer it waited
// on.
func TestDriveWaitTimeoutNamesRoleOpPeer(t *testing.T) {
	for _, c := range []struct {
		name, p, q string
		bound      int // 0: the default unbounded rings
		want       TimeoutError
	}{
		{"receive", "q?rep.end", "p!rep.end", 0, TimeoutError{Role: "p", Op: "receive", Peer: "q"}},
		{"send", "q!a.q!a.end", "p?a.p?a.end", 1, TimeoutError{Role: "p", Op: "send", Peer: "q"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := BottomUp(1, fsm.MustFromLocal("p", types.MustParse(c.p)), fsm.MustFromLocal("q", types.MustParse(c.q)))
			if err != nil {
				t.Fatal(err)
			}
			if c.bound > 0 {
				s = s.Rewire(func(roles ...types.Role) *Network { return NewBoundedNetwork(c.bound, roles...) })
			}
			ep, err := s.Endpoint("p")
			if err != nil {
				t.Fatal(err)
			}
			ep.SetDeadline(time.Now().Add(10 * time.Millisecond))
			err = Drive(ep, s.FSM("p"), FirstBranch{}, 16)
			var te *TimeoutError
			if !errors.As(err, &te) || *te != c.want {
				t.Fatalf("Drive against a silent peer: %v, want %+v", err, c.want)
			}
		})
	}
}

// TestDriveWaitSurfacesCloseCause pins the close arm of Drive's wait: an
// abort while Drive waits on its route ends the wait, and the next Step
// reports the abort with its cause.
func TestDriveWaitSurfacesCloseCause(t *testing.T) {
	s, err := BottomUp(1, fsm.MustFromLocal("p", types.MustParse("q?rep.end")), fsm.MustFromLocal("q", types.MustParse("p!rep.end")))
	if err != nil {
		t.Fatal(err)
	}
	ep, err := s.Endpoint("p")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Drive(ep, s.FSM("p"), FirstBranch{}, 16) }()
	time.Sleep(5 * time.Millisecond) // most likely parked by now; either way the abort must surface
	s.Abort(errRootCause)
	err = <-done
	if !errors.Is(err, errRootCause) || !errors.Is(err, channel.ErrClosed) || errors.Is(err, ErrTimeout) {
		t.Fatalf("Drive after an abort: %v, want the close carrying the root cause", err)
	}
}

// TestDriveRetriesFaultyRefusal pins the Faulty arm of Drive's wait: a
// spurious refusal's wait returns at once and the retry passes, so a run
// in which every message's first probe is refused completes, well inside
// a deadline it never needs.
func TestDriveRetriesFaultyRefusal(t *testing.T) {
	s, err := BottomUp(1,
		fsm.MustFromLocal("p", types.MustParse("q!a.q?b.q!a.end")),
		fsm.MustFromLocal("q", types.MustParse("p?a.p!b.p?a.end")))
	if err != nil {
		t.Fatal(err)
	}
	s = s.Rewire(func(roles ...types.Role) *Network {
		return NewCustomNetwork(func() channel.Substrate {
			return channel.NewFaulty(channel.NewRingQueue(), channel.FaultPlan{Seed: 1, WouldBlockP: 1000})
		}, roles...)
	})
	deadline := time.Now().Add(30 * time.Second)
	procs := map[types.Role]func(*Endpoint) error{}
	for _, r := range s.Roles() {
		m := s.FSM(r)
		procs[r] = func(e *Endpoint) error {
			e.SetDeadline(deadline)
			return Drive(e, m, FirstBranch{}, 16)
		}
	}
	if err := s.Run(procs); err != nil {
		t.Fatalf("Drive under a refusal on every message: %v", err)
	}
	if !time.Now().Before(deadline) {
		t.Fatal("Drive completed only at its deadline")
	}
}

// TestUncheckedFaceSurfacesAbortCause re-pins the generated-code face: an
// abort's cause flows unchanged through the route-bound Unchecked
// receiver the codegen APIs are built on.
func TestUncheckedFaceSurfacesAbortCause(t *testing.T) {
	n := NewNetwork("a", "b")
	from, err := UncheckedForCodegen(n.Endpoint("a")).From("b")
	if err != nil {
		t.Fatal(err)
	}
	n.CloseWithError(&ProtocolError{Role: "b", Cause: errRootCause})
	_, _, err = from.Recv()
	assertAbortChain(t, err, "b", errRootCause)
}

// TestNewCustomNetworkFaultyRoutes pins the extension point the chaos
// harness uses: a network over channel.Faulty routes behaves like the inner
// substrate, and an injected close surfaces as a typed cause.
func TestNewCustomNetworkFaultyRoutes(t *testing.T) {
	n := NewCustomNetwork(func() channel.Substrate {
		return channel.NewFaulty(channel.NewRingQueue(), channel.FaultPlan{Seed: 3, CloseAfter: 4})
	}, "a", "b")
	ea, eb := n.Endpoint("a"), n.Endpoint("b")
	var last error
	for i := 0; i < 16 && last == nil; i++ {
		if err := ea.Send("b", "v", i); err != nil {
			last = err
			break
		}
		if _, _, err := eb.Receive("a"); err != nil {
			last = err
		}
	}
	if last == nil {
		t.Fatal("injected close never surfaced through the session layer")
	}
	if !errors.Is(last, channel.ErrInjected) || !errors.Is(last, channel.ErrClosed) {
		t.Fatalf("injected close chain broken: %v", last)
	}
}

// CloseWithError tears the network down with a cause: like Close, but every
// blocked or future operation observes a channel.CloseError wrapping err
// rather than the bare channel.ErrClosed. The first cause wins; a nil err
// is equivalent to Close.
func (n *Network) CloseWithError(err error) { n.closeAllWith(err) }
