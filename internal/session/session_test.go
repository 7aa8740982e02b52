package session

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/types"
)

func TestNetworkRouting(t *testing.T) {
	n := NewNetwork("a", "b")
	a, b := n.Endpoint("a"), n.Endpoint("b")
	if err := a.Send("b", "hello", 7); err != nil {
		t.Fatal(err)
	}
	label, value, err := b.Receive("a")
	if err != nil || label != "hello" || value.(int) != 7 {
		t.Fatalf("Receive = %v %v %v", label, value, err)
	}
	if err := a.Send("zz", "x", nil); err == nil {
		t.Error("send to unknown role accepted")
	}
	if _, _, err := a.Receive("zz"); err == nil {
		t.Error("receive from unknown role accepted")
	}
}

func TestReceiveLabel(t *testing.T) {
	n := NewNetwork("a", "b")
	a, b := n.Endpoint("a"), n.Endpoint("b")
	a.Send("b", "ready", nil)
	if _, err := b.ReceiveLabel("a", "ready"); err != nil {
		t.Fatal(err)
	}
	a.Send("b", "other", nil)
	if _, err := b.ReceiveLabel("a", "ready"); err == nil {
		t.Error("wrong label accepted")
	}
}

func TestMonitorEnforcesProtocol(t *testing.T) {
	m := fsm.MustFromLocal("a", types.MustParse("b!req.b?rep.end"))
	n := NewNetwork("a", "b")
	ep := monitoredEndpoint("a", n, m)

	// Receiving first violates the FSM.
	bEp := n.Endpoint("b")
	bEp.Send("a", "rep", nil)
	if _, _, err := ep.Receive("b"); err == nil {
		t.Fatal("out-of-order receive accepted")
	} else {
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("error type %T", err)
		}
	}
}

func TestMonitorWrongLabel(t *testing.T) {
	m := fsm.MustFromLocal("a", types.MustParse("b!req.end"))
	n := NewNetwork("a", "b")
	ep := monitoredEndpoint("a", n, m)
	if err := ep.Send("b", "oops", nil); err == nil {
		t.Error("wrong label accepted by monitor")
	}
	if err := ep.Send("b", "req", nil); err != nil {
		t.Errorf("allowed action rejected: %v", err)
	}
	if !ep.Monitor().Terminal() {
		t.Error("monitor not terminal after protocol completion")
	}
}

func TestTrySessionLinearity(t *testing.T) {
	n := NewNetwork("a", "b")
	ep := n.Endpoint("a")
	inner := make(chan error, 1)
	err := TrySession(ep, func(e *Endpoint) error {
		inner <- TrySession(e, func(*Endpoint) error { return nil })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := <-inner; !errors.Is(got, ErrLinearity) {
		t.Errorf("nested TrySession = %v, want ErrLinearity", got)
	}
}

func TestTrySessionCompletion(t *testing.T) {
	m := fsm.MustFromLocal("a", types.MustParse("b!req.end"))
	n := NewNetwork("a", "b")
	ep := monitoredEndpoint("a", n, m)

	// Returning early is an incompleteness fault.
	err := TrySession(ep, func(e *Endpoint) error { return nil })
	if !errors.Is(err, ErrIncomplete) {
		t.Errorf("early return = %v, want ErrIncomplete", err)
	}
	// Driving to the end succeeds; the monitor resets between sessions so the
	// endpoint is reusable sequentially (channel reuse, §2.1).
	for i := 0; i < 2; i++ {
		err = TrySession(ep, func(e *Endpoint) error {
			return e.Send("b", "req", i)
		})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
}

func TestTopDownWorkflow(t *testing.T) {
	g := types.MustParseGlobal("mu x.k->s:ready.s->k:value.t->k:ready.k->t:value.x")
	opt := fsm.MustFromLocal("k", types.MustParse("s!ready.mu x.s!ready.s?value.t?ready.t!value.x"))
	s, err := TopDown(g, map[types.Role]*fsm.FSM{"k": opt}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FSM("k"); got != opt {
		t.Error("session did not adopt the optimised kernel")
	}
	if s.FSM("s") == nil || s.FSM("t") == nil {
		t.Error("projections missing from session")
	}
}

func TestTopDownRejectsUnsafeOptimisation(t *testing.T) {
	g := types.MustParseGlobal("mu x.k->s:ready.s->k:value.t->k:ready.k->t:value.x")
	// Reordering the kernel to receive the value before sending ready
	// deadlocks; the subtyping check must reject the session.
	bad := fsm.MustFromLocal("k", types.MustParse("mu x.s?value.s!ready.t?ready.t!value.x"))
	if _, err := TopDown(g, map[types.Role]*fsm.FSM{"k": bad}, core.Options{}); err == nil {
		t.Error("unsafe optimisation accepted")
	}
	// Unknown optimised role.
	ghost := fsm.MustFromLocal("z", types.MustParse("s!ready.end"))
	if _, err := TopDown(g, map[types.Role]*fsm.FSM{"z": ghost}, core.Options{}); err == nil {
		t.Error("non-participant optimisation accepted")
	}
}

func TestBottomUpWorkflow(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("q!req.q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p?req.p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Roles()) != 2 {
		t.Errorf("Roles = %v", s.Roles())
	}
	// A deadlocking pair must be rejected.
	dp := fsm.MustFromLocal("p", types.MustParse("q?rep.q!req.end"))
	dq := fsm.MustFromLocal("q", types.MustParse("p?req.p!rep.end"))
	if _, err := BottomUp(2, dp, dq); err == nil {
		t.Error("deadlocking system accepted")
	}
}

func TestHybridWorkflow(t *testing.T) {
	g := types.MustParseGlobal("mu x.t->s:ready.s->t:{value.x, stop.end}")
	apis := map[types.Role]*fsm.FSM{
		"s": fsm.MustFromLocal("s", types.MustParse("mu x.t?ready.t!{value.x, stop.end}")),
		"t": fsm.MustFromLocal("t", types.MustParse("mu x.s!ready.s?{value.x, stop.end}")),
	}
	if _, err := Hybrid(g, apis, core.Options{}); err != nil {
		t.Fatal(err)
	}
	// Hybrid requires an API for every role.
	delete(apis, "t")
	if _, err := Hybrid(g, apis, core.Options{}); err == nil {
		t.Error("incomplete API set accepted")
	}
}

func TestRunStreamingEndToEnd(t *testing.T) {
	g := types.MustParseGlobal("mu x.t->s:ready.s->t:{value.x, stop.end}")
	s, err := TopDown(g, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	var got []int
	err = s.Run(map[types.Role]func(*Endpoint) error{
		"s": func(e *Endpoint) error {
			for i := 0; ; i++ {
				if _, err := e.ReceiveLabel("t", "ready"); err != nil {
					return err
				}
				if i == n {
					return e.Send("t", "stop", nil)
				}
				if err := e.Send("t", "value", i); err != nil {
					return err
				}
			}
		},
		"t": func(e *Endpoint) error {
			for {
				if err := e.Send("s", "ready", nil); err != nil {
					return err
				}
				label, v, err := e.Receive("s")
				if err != nil {
					return err
				}
				if label == "stop" {
					return nil
				}
				got = append(got, v.(int))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d values", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestRunOptimisedDoubleBufferingEndToEnd(t *testing.T) {
	// The running example with the AMR-optimised kernel, executed for a
	// bounded number of iterations. The protocol is infinitely recursive so
	// processes stop with ErrStopped, which Run filters.
	g := types.MustParseGlobal("mu x.k->s:ready.s->k:value.t->k:ready.k->t:value.x")
	opt := fsm.MustFromLocal("k", types.MustParse("s!ready.mu x.s!ready.s?value.t?ready.t!value.x"))
	s, err := TopDown(g, map[types.Role]*fsm.FSM{"k": opt}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 100
	var mu sync.Mutex
	var sunk []int
	err = s.Run(map[types.Role]func(*Endpoint) error{
		"k": func(e *Endpoint) error {
			// Optimised kernel: two readys in flight.
			if err := e.Send("s", "ready", nil); err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				if err := e.Send("s", "ready", nil); err != nil {
					return err
				}
				v, err := e.ReceiveLabel("s", "value")
				if err != nil {
					return err
				}
				if _, err := e.ReceiveLabel("t", "ready"); err != nil {
					return err
				}
				if err := e.Send("t", "value", v); err != nil {
					return err
				}
			}
			return ErrStopped
		},
		"s": func(e *Endpoint) error {
			for i := 0; i < iters+1; i++ {
				if _, err := e.ReceiveLabel("k", "ready"); err != nil {
					return err
				}
				if err := e.Send("k", "value", i); err != nil {
					return err
				}
			}
			return ErrStopped
		},
		"t": func(e *Endpoint) error {
			for i := 0; i < iters; i++ {
				if err := e.Send("k", "ready", nil); err != nil {
					return err
				}
				v, err := e.ReceiveLabel("k", "value")
				if err != nil {
					return err
				}
				mu.Lock()
				sunk = append(sunk, v.(int))
				mu.Unlock()
			}
			return ErrStopped
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sunk) != iters {
		t.Fatalf("sink received %d values", len(sunk))
	}
	for i, v := range sunk {
		if v != i {
			t.Fatalf("sunk[%d] = %d", i, v)
		}
	}
}

func TestSessionEndpointUnknownRole(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("q!req.q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p?req.p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Endpoint("zz"); err == nil {
		t.Error("unknown role accepted")
	}
}

func TestRunPropagatesProtocolViolation(t *testing.T) {
	p := fsm.MustFromLocal("p", types.MustParse("q!req.q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p?req.p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(map[types.Role]func(*Endpoint) error{
		"p": func(e *Endpoint) error {
			return e.Send("q", "wrong_label", nil) // violates the FSM
		},
		"q": func(e *Endpoint) error {
			// Will never receive; but p's violation is caught before any send
			// happens, so receive would block forever — use the violation
			// path: q simply returns early and reports incompleteness.
			return ErrStopped
		},
	})
	if err == nil {
		t.Fatal("protocol violation not propagated")
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Errorf("error %v does not wrap ProtocolError", err)
	}
}

func TestQueueNetworkRouting(t *testing.T) {
	// The mutex baseline substrate behaves identically to the ring default.
	n := NewQueueNetwork("a", "b")
	a, b := n.Endpoint("a"), n.Endpoint("b")
	if err := a.Send("b", "hello", 7); err != nil {
		t.Fatal(err)
	}
	label, value, err := b.Receive("a")
	if err != nil || label != "hello" || value.(int) != 7 {
		t.Fatalf("Receive = %v %v %v", label, value, err)
	}
}

func TestSendNReceiveNUnmonitored(t *testing.T) {
	nets := map[string]*Network{
		"ring":    NewNetwork("a", "b"),
		"queue":   NewQueueNetwork("a", "b"),
		"bounded": NewBoundedNetwork(3, "a", "b"), // batch > capacity: chunked
	}
	for name, n := range nets {
		t.Run(name, func(t *testing.T) {
			a, b := n.Endpoint("a"), n.Endpoint("b")
			values := make([]any, 10)
			for i := range values {
				values[i] = i
			}
			done := make(chan error, 1)
			go func() { done <- a.SendN("b", "v", values) }()
			dst := make([]any, 10)
			if err := b.ReceiveN("a", "v", dst); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			for i, v := range dst {
				if v.(int) != i {
					t.Fatalf("dst[%d] = %v", i, v)
				}
			}
			// Wrong expected label surfaces as an error, not silence.
			a.Send("b", "other", nil)
			if err := b.ReceiveN("a", "v", dst[:1]); err == nil {
				t.Error("wrong label accepted by ReceiveN")
			}
		})
	}
}

func TestSendNReceiveNMonitored(t *testing.T) {
	// Self-loop protocol: the monitor's FSM scan is amortised over the run,
	// but payload sorts are still checked per message.
	ma := fsm.MustFromLocal("a", types.MustParse("mu t.b!v(i32).t"))
	mb := fsm.MustFromLocal("b", types.MustParse("mu t.a?v(i32).t"))
	n := NewNetwork("a", "b")
	ea := monitoredEndpoint("a", n, ma)
	eb := monitoredEndpoint("b", n, mb)

	values := make([]any, 8)
	for i := range values {
		values[i] = int32(i)
	}
	if err := ea.SendN("b", "v", values); err != nil {
		t.Fatal(err)
	}
	dst := make([]any, 8)
	if err := eb.ReceiveN("a", "v", dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v.(int32) != int32(i) {
			t.Fatalf("dst[%d] = %v", i, v)
		}
	}
	// A sort violation mid-batch is caught even on the amortised path.
	bad := []any{int32(0), "not an i32", int32(2)}
	err := ea.SendN("b", "v", bad)
	var se *SortError
	if !errors.As(err, &se) {
		t.Errorf("SendN with bad payload = %v, want SortError", err)
	}
	// A label the FSM does not allow is rejected before anything is sent.
	if err := ea.SendN("b", "nope", values[:2]); err == nil {
		t.Error("SendN with disallowed label accepted")
	}
	// A rejected batch rewinds the monitor: no messages went out, so a
	// legitimate send afterwards must still be allowed (no state skew).
	if err := ea.Send("b", "v", int32(9)); err != nil {
		t.Errorf("send after rejected batch = %v (monitor ran ahead of channel)", err)
	}
}

func TestReceiveNFaultsPromptlyMidBatch(t *testing.T) {
	// A protocol deviation inside a batch must surface as soon as the
	// deviating message arrives — not leave the receiver blocked waiting
	// for the rest of a batch a misbehaving peer will never send.
	n := NewNetwork("a", "b")
	a, b := n.Endpoint("a"), n.Endpoint("b")
	a.Send("b", "v", 0)
	a.Send("b", "other", 1) // deviation; nothing follows
	errc := make(chan error, 1)
	go func() {
		dst := make([]any, 4) // asks for more than will ever arrive
		errc <- b.ReceiveN("a", "v", dst)
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("mid-batch wrong label accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReceiveN hung on mid-batch protocol deviation")
	}
}

// TestReceiveNRejectedLabelIsProtocolError pins that a monitored ReceiveN
// fails a label its machine does not accept with the *ProtocolError
// TryRecvMsg returns for the same message, and that a label the machine
// accepts but the batch did not ask for moves the monitor over it: the
// message is consumed either way.
func TestReceiveNRejectedLabelIsProtocolError(t *testing.T) {
	mb := fsm.MustFromLocal("b", types.MustParse("mu t.a?v(i32).t"))
	n := NewNetwork("a", "b")
	a, eb := n.Endpoint("a"), monitoredEndpoint("b", n, mb)
	a.Send("b", "v", int32(0))
	a.Send("b", "bogus", int32(1))
	err := eb.ReceiveN("a", "v", make([]any, 2))
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Action.Label != "bogus" || pe.Action.Peer != "a" || pe.Action.Dir != fsm.Recv {
		t.Fatalf("ReceiveN of a rejected label = %v, want a *ProtocolError for a?bogus", err)
	}

	mc := fsm.MustFromLocal("c", types.MustParse("a?{x.end, y.end}"))
	n = NewNetwork("a", "c")
	ec := monitoredEndpoint("c", n, mc)
	n.Endpoint("a").Send("c", "y", nil)
	if err := ec.ReceiveN("a", "x", make([]any, 1)); err == nil || errors.As(err, &pe) {
		t.Fatalf("ReceiveN of an accepted but unwanted label = %v, want a label mismatch", err)
	}
	if !ec.Monitor().Terminal() {
		t.Errorf("monitor did not step over the consumed message: state %d", ec.Monitor().State())
	}
}

// TestNetworkRoutesEveryPairBeyondEightRoles pins routing by role position
// past the eight roles the workloads use: on a 12-role network every
// ordered pair's Send reaches that pair's Receive, and no other route.
func TestNetworkRoutesEveryPairBeyondEightRoles(t *testing.T) {
	roles := make([]types.Role, 12)
	for i := range roles {
		roles[i] = types.Role(fmt.Sprintf("r%02d", i))
	}
	n := NewNetwork(roles...)
	for _, from := range roles {
		for _, to := range roles {
			if from != to {
				if err := n.Endpoint(from).Send(to, types.Label(from+"-"+to), nil); err != nil {
					t.Fatalf("%s -> %s: %v", from, to, err)
				}
			}
		}
	}
	for _, to := range roles {
		ep := n.Endpoint(to)
		for _, from := range roles {
			if from == to {
				continue
			}
			label, _, err := ep.TryRecvMsg(from)
			if err != nil || label != types.Label(from+"-"+to) {
				t.Fatalf("%s receiving from %s = (%q, %v), want %s-%s", to, from, label, err, from, to)
			}
			if _, _, err := ep.TryRecvMsg(from); err != ErrWouldBlock {
				t.Fatalf("%s receiving from %s again = %v, want ErrWouldBlock", to, from, err)
			}
		}
	}
	if err := n.Endpoint("r99").Send("r00", "x", nil); err == nil {
		t.Error("send from a role the network does not know accepted")
	}
}

func TestRewireBoundedNetwork(t *testing.T) {
	// A 1-MC system rewired onto a 1-bounded ring network must still run to
	// completion (the execution-level counterpart of the k-MC guarantee).
	p := fsm.MustFromLocal("p", types.MustParse("q!req.q?rep.end"))
	q := fsm.MustFromLocal("q", types.MustParse("p?req.p!rep.end"))
	s, err := BottomUp(1, p, q)
	if err != nil {
		t.Fatal(err)
	}
	s.Rewire(func(roles ...types.Role) *Network {
		return NewBoundedNetwork(1, roles...)
	})
	err = s.Run(map[types.Role]func(*Endpoint) error{
		"p": func(e *Endpoint) error {
			if err := e.Send("q", "req", nil); err != nil {
				return err
			}
			_, err := e.ReceiveLabel("q", "rep")
			return err
		},
		"q": func(e *Endpoint) error {
			if _, err := e.ReceiveLabel("p", "req"); err != nil {
				return err
			}
			return e.Send("p", "rep", nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBoundedNetworkBackpressure(t *testing.T) {
	// A 1-bounded network blocks the second send until the first is drained.
	n := NewBoundedNetwork(1, "a", "b")
	ea, eb := n.Endpoint("a"), n.Endpoint("b")
	if err := ea.Send("b", "m", 1); err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	go func() {
		ea.Send("b", "m", 2)
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("send on full bounded queue did not block")
	default:
	}
	if _, _, err := eb.Receive("a"); err != nil {
		t.Fatal(err)
	}
	<-sent
}

func TestBoundedNetworkRunsKMCSystem(t *testing.T) {
	// The optimised double-buffering system is 2-MC, so it must run to
	// completion on a 2-bounded network — the execution-level counterpart of
	// the k-MC guarantee.
	n := NewBoundedNetwork(2, "k", "s", "t")
	kernel, source, sink := n.Endpoint("k"), n.Endpoint("s"), n.Endpoint("t")
	const iters = 50
	done := make(chan error, 3)
	go func() {
		kernel.Send("s", "ready", nil)
		for i := 0; i < iters; i++ {
			if i+1 < iters {
				kernel.Send("s", "ready", nil)
			}
			v, err := kernel.ReceiveLabel("s", "value")
			if err != nil {
				done <- err
				return
			}
			if _, err := kernel.ReceiveLabel("t", "ready"); err != nil {
				done <- err
				return
			}
			kernel.Send("t", "value", v)
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < iters; i++ {
			if _, err := source.ReceiveLabel("k", "ready"); err != nil {
				done <- err
				return
			}
			source.Send("k", "value", i)
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < iters; i++ {
			sink.Send("k", "ready", nil)
			if _, err := sink.ReceiveLabel("k", "value"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// monitoredEndpoint builds a monitored endpoint for role on n outside any
// Session, placed on the network as Network.Endpoint places it.
func monitoredEndpoint(role types.Role, n *Network, m *fsm.FSM) *Endpoint {
	return &Endpoint{role: role, net: n, me: slices.Index(n.roles, role), mon: NewMonitor(m)}
}
