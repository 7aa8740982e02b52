package sched

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/netchan"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// netTable builds a one-label wire table for the external-wakeup tests.
func netTable(t testing.TB) *wire.Table {
	t.Helper()
	var local types.Local = types.Send{Peer: "q", Branches: []types.Branch{
		{Label: "val", Sort: types.I32, Cont: types.End{}},
	}}
	tab, err := wire.TableFromLocals("schedexttest", map[types.Role]types.Local{"p": local})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// netReceiver is a stepper driven entirely by a socket-backed route: it
// would-blocks until the remote peer's traffic lands, so nothing on its own
// shard can ever unblock it — the exact shape GoExternal exists for.
type netReceiver struct {
	route *netchan.Route
	want  int
	got   int
}

func (r *netReceiver) Step() (bool, error) {
	_, ok, err := r.route.TryRecv()
	if err != nil {
		return false, err
	}
	if !ok {
		return false, session.ErrWouldBlock
	}
	r.got++
	return r.got == r.want, nil
}

func (r *netReceiver) Role() types.Role { return "q" }

// The acceptance-criterion pin: a session parked on would-block from a
// socket route is woken by the transport's readiness event. Under
// sterile-pass-only wakeup — the pre-GoExternal semantics, where a sterile
// pass is final — the same session is condemned as deadlocked even though
// the message is already in flight; the first subtest nails that contrast
// down so the wakeup path cannot quietly regress to polling or to
// fail-fast.
func TestExternalWakeup(t *testing.T) {
	mkRoute := func(buffer int) *netchan.Route {
		return netchan.Pipe(netTable(t), netchan.Options{Buffer: buffer})
	}

	t.Run("sterile-pass-only wakeup misreads the wire as deadlock", func(t *testing.T) {
		route := mkRoute(4)
		defer route.Abandon()
		s := New(Options{Workers: 1})
		defer s.Close()
		done := make(chan error, 1)
		if err := s.Go(time.Time{}, func(err error) { done <- err },
			&netReceiver{route: route, want: 1}); err != nil {
			t.Fatal(err)
		}
		// The message arrives "late" — after the scheduler's first sterile
		// pass. Plain Go has no external wakeup: it has already failed.
		err := <-done
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("plain Go over a socket route: err = %v, want ErrDeadlock", err)
		}
		if route.Send(channel.Message{Label: "val", Value: int32(1)}) != nil {
			t.Fatal("route unexpectedly closed")
		}
	})

	t.Run("waker readiness completes the session", func(t *testing.T) {
		route := mkRoute(4)
		defer route.Abandon()
		s := New(Options{Workers: 1})
		defer s.Close()
		done := make(chan error, 1)
		// No deadline: completion can only come from Wake-driven re-visits.
		wk, err := s.GoExternal(time.Time{}, func(err error) { done <- err },
			&netReceiver{route: route, want: 3})
		if err != nil {
			t.Fatal(err)
		}
		route.SetNotify(wk.Wake)
		// Let the session reach its parked state, then feed it one message
		// at a time: each delivery's notify must wake the parked session.
		for i := 0; i < 3; i++ {
			time.Sleep(5 * time.Millisecond)
			if err := route.Send(channel.Message{Label: "val", Value: int32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("external session failed: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("woken session never completed: readiness wakeup lost")
		}
	})

	t.Run("unwoken session times out, not deadlocks", func(t *testing.T) {
		route := mkRoute(4)
		defer route.Abandon()
		s := New(Options{Workers: 1})
		defer s.Close()
		done := make(chan error, 1)
		deadline := time.Now().Add(50 * time.Millisecond)
		wk, err := s.GoExternal(deadline, func(err error) { done <- err },
			&netReceiver{route: route, want: 1})
		if err != nil {
			t.Fatal(err)
		}
		route.SetNotify(wk.Wake)
		select {
		case err := <-done:
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Fatalf("err = %v, want *TimeoutError", err)
			}
			if !errors.Is(err, session.ErrTimeout) {
				t.Fatal("TimeoutError must unwrap to session.ErrTimeout")
			}
			if len(te.Stuck) != 1 || te.Stuck[0] != "q" {
				t.Fatalf("stuck roles = %v, want [q]", te.Stuck)
			}
			if errors.Is(err, ErrDeadlock) {
				t.Fatal("an external session must never be condemned as deadlocked")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadline never fired for parked external session")
		}
	})

	t.Run("wake racing the park is never lost", func(t *testing.T) {
		// Hammer the park/wake race: the sender pushes with no pacing, so
		// deliveries constantly land between a failed TryRecv and the park
		// decision. The wakes-counter protocol must catch every one.
		route := mkRoute(2)
		defer route.Abandon()
		s := New(Options{Workers: 1})
		defer s.Close()
		const n = 500
		done := make(chan error, 1)
		wk, err := s.GoExternal(time.Now().Add(30*time.Second), func(err error) { done <- err },
			&netReceiver{route: route, want: n})
		if err != nil {
			t.Fatal(err)
		}
		route.SetNotify(wk.Wake)
		go func() {
			for i := 0; i < n; i++ {
				route.Send(channel.Message{Label: "val", Value: int32(i)})
			}
		}()
		if err := <-done; err != nil {
			t.Fatalf("raced session failed: %v", err)
		}
	})
}

// netSender is a stepper that sends n messages over a socket-backed route,
// would-blocking whenever the route is full.
type netSender struct {
	route *netchan.Route
	n     int64
	sent  atomic.Int64
}

func (s *netSender) Step() (bool, error) {
	i := s.sent.Load()
	ok, err := s.route.TrySend(channel.Message{Label: "val", Value: int32(i)})
	if err != nil {
		return false, err
	}
	if !ok {
		return false, session.ErrWouldBlock
	}
	s.sent.Add(1)
	return i+1 == s.n, nil
}

func (s *netSender) Role() types.Role { return "p" }

// A sender refused by a full route is woken when the route's writer frees
// a slot. The receiver is slow on purpose: it takes the next message only
// once the sender has filled the route again, so every send follows a
// refusal and, at every receive, the reader pump is blocked delivering into
// a full ring. The notify hook lingers after waking, as a busy waker might,
// so the sender woken by that delivery steps while the reader pump is
// still in the hook — before the writer has freed a slot — and is refused
// again. From there only the writer's notify can wake it: if that one is
// lost, both sides wait until the session deadline.
func TestExternalRefusedSendWoken(t *testing.T) {
	route := netchan.Pipe(netTable(t), netchan.Options{Buffer: 1})
	defer route.Abandon()
	// The route's capacity end to end (rings, pumps and pipe) is what
	// TrySend fits in, retried until it keeps refusing, while nothing
	// receives. The probe messages are drained before the sender starts.
	var capacity int64
	for refusals := 0; refusals < 10; {
		ok, err := route.TrySend(channel.Message{Label: "val", Value: int32(0)})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			capacity, refusals = capacity+1, 0
			continue
		}
		refusals++
		time.Sleep(2 * time.Millisecond)
	}
	for i := int64(0); i < capacity; i++ {
		if _, err := route.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Options{Workers: 1})
	defer s.Close()
	const n = 1000
	const timeout = 10 * time.Second
	snd := &netSender{route: route, n: n}
	done := make(chan error, 1)
	start := time.Now()
	wk, err := s.GoExternal(start.Add(timeout), func(err error) { done <- err }, snd)
	if err != nil {
		t.Fatal(err)
	}
	route.SetNotify(func() {
		wk.Wake()
		time.Sleep(50 * time.Microsecond)
	})
	wk.Wake() // for a notify the route fired before the hook was installed
	ended := false
	end := func(err error) {
		if err != nil {
			t.Fatalf("sender failed after %d of %d sends: %v", snd.sent.Load(), n, err)
		}
		ended = true
	}
	for got := int64(0); got < n; got++ {
		m, err := route.Recv()
		if err != nil || m.Value != int32(got) {
			t.Fatalf("receive %d = (%v, %v)", got, m, err)
		}
		for sent := snd.sent.Load(); sent-got-1 < capacity && sent < n && !ended; sent = snd.sent.Load() {
			select {
			case err := <-done:
				end(err)
			case <-time.After(20 * time.Microsecond):
			}
		}
	}
	if !ended {
		end(<-done)
	}
	if el := time.Since(start); el > timeout/2 {
		t.Fatalf("%d refused sends took %v against a %v deadline", n, el, timeout)
	}
}

// unixFabrics builds two connected unix-socket fabrics for roles p and q
// and returns each role's two halves: p sends on pq and receives on qp, q
// the reverse. The caller closes the fabrics.
func unixFabrics(t *testing.T) (fp, fq *netchan.Fabric, pOut, pIn, qOut, qIn channel.Substrate) {
	t.Helper()
	var pq types.Local = types.Send{Peer: "q", Branches: []types.Branch{
		{Label: "val", Sort: types.I32, Cont: types.End{}},
	}}
	tab, err := wire.TableFromLocals("schednettest", map[types.Role]types.Local{"p": pq})
	if err != nil {
		t.Fatal(err)
	}
	opts := netchan.Options{DialTimeout: 5 * time.Second}
	fp, fq = netchan.NewFabric("p", tab, opts), netchan.NewFabric("q", tab, opts)
	dir := t.TempDir()
	ap, err := fp.Listen("unix", filepath.Join(dir, "p.sock"))
	if err != nil {
		t.Fatal(err)
	}
	aq, err := fq.Listen("unix", filepath.Join(dir, "q.sock"))
	if err != nil {
		t.Fatal(err)
	}
	fp.SetPeer("q", aq)
	fq.SetPeer("p", ap)
	roles := []types.Role{"p", "q"}
	mkP, mkQ := fp.RouteMaker(roles), fq.RouteMaker(roles)
	// Row-major ordinals over (p, q): 0 = p->q, 1 = q->p.
	pOut, pIn = mkP(), mkP()
	qIn, qOut = mkQ(), mkQ()
	return fp, fq, pOut, pIn, qOut, qIn
}

// pinger sends rounds values and checks each answer is the value plus one;
// ponger answers. Each closes both its routes from inside its last step,
// the way a role tears its network down when its protocol ends.
type pinger struct {
	out, in   channel.Substrate
	n, rounds int
	sent      bool
}

func (p *pinger) Step() (bool, error) {
	if p.rounds == p.n {
		p.out.Close()
		p.in.Close()
		return true, nil
	}
	if !p.sent {
		ok, err := p.out.TrySend(channel.Message{Label: "val", Value: int32(p.rounds)})
		if err != nil {
			return true, err
		}
		if !ok {
			return false, session.ErrWouldBlock
		}
		p.sent = true
		return false, nil
	}
	m, ok, err := p.in.TryRecv()
	if err != nil {
		return true, err
	}
	if !ok {
		return false, session.ErrWouldBlock
	}
	if m.Value != int32(p.rounds+1) {
		return true, fmt.Errorf("round %d: answer %v", p.rounds, m.Value)
	}
	p.rounds++
	p.sent = false
	return false, nil
}

type ponger struct {
	out, in   channel.Substrate
	n, rounds int
	pending   *channel.Message
}

func (q *ponger) Step() (bool, error) {
	if q.pending == nil {
		if q.rounds == q.n {
			q.out.Close()
			q.in.Close()
			return true, nil
		}
		m, ok, err := q.in.TryRecv()
		if err != nil {
			return true, err
		}
		if !ok {
			return false, session.ErrWouldBlock
		}
		m.Value = m.Value.(int32) + 1
		q.pending = &m
		return false, nil
	}
	ok, err := q.out.TrySend(*q.pending)
	if err != nil {
		return true, err
	}
	if !ok {
		return false, session.ErrWouldBlock
	}
	q.pending = nil
	q.rounds++
	return false, nil
}

// Two GoExternal sessions ping-pong over unix fabrics. A delivery wakes
// the parked receiver, which then runs on the reader goroutine that
// delivered it; the last delivery on each side is followed, in the same
// visit, by a Close of the half it arrived on, which takes the half's lock
// and closes the connection that very reader serves. A reader that fired
// its notify hook while holding that lock would deadlock on itself there.
// The scheduler and fabrics are closed only on success: after a stall
// their Close would wait on the stuck reader.
func TestExternalPingPongCloseInStep(t *testing.T) {
	const rounds = 1000
	fp, fq, pOut, pIn, qOut, qIn := unixFabrics(t)
	s := New(Options{Workers: 2})
	done := make(chan error, 2)
	deadline := time.Now().Add(30 * time.Second)
	wq, err := s.GoExternal(deadline, func(err error) { done <- err }, &ponger{out: qOut, in: qIn, n: rounds})
	if err != nil {
		t.Fatal(err)
	}
	fq.SetNotify(wq.Wake)
	wq.Wake()
	wp, err := s.GoExternal(deadline, func(err error) { done <- err }, &pinger{out: pOut, in: pIn, n: rounds})
	if err != nil {
		t.Fatal(err)
	}
	fp.SetNotify(wp.Wake)
	wp.Wake()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("ping-pong stalled: a reader deadlocked or a wake was lost")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fp.Close()
	fq.Close()
}

// chainLink is one session of a wake chain: it would-blocks until its turn,
// then records how many visits are on its goroutine's stack and wakes the
// next link from inside its own step.
type chainLink struct {
	turn  atomic.Bool
	next  *chainLink
	wake  *Waker
	depth *atomic.Int32 // deepest visit nesting seen by any link
}

func (c *chainLink) Step() (bool, error) {
	if !c.turn.Load() {
		return false, session.ErrWouldBlock
	}
	d := int32(visitsOnStack())
	for {
		old := c.depth.Load()
		if d <= old || c.depth.CompareAndSwap(old, d) {
			break
		}
	}
	if c.next != nil {
		c.next.turn.Store(true)
		c.next.wake.Wake()
	}
	return true, nil
}

// visitsOnStack counts the scheduler visits on the calling goroutine's
// stack: one for a plain visit, more when a Wake made inside a visit ran
// another session inline.
func visitsOnStack() int {
	pcs := make([]uintptr, 512)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	n := 0
	for {
		f, more := frames.Next()
		if f.Function == "repro/internal/sched.(*Scheduler).visit" {
			n++
		}
		if !more {
			return n
		}
	}
}

// A Wake made from inside a visit may run the woken session inline, but at
// most one inline visit runs per worker: a chain of parked sessions, each
// waking the next from inside its step, nests no deeper than one visit per
// worker plus the visit that started it — not one per link — and every link
// still runs (no wakeup is lost to the hand-off to the worker's inbox).
func TestNestedWakeBounded(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const links = 64
			// No stealing: link i stays on worker i mod workers, so with two
			// workers every wake crosses to the other worker's shard.
			s := New(Options{Workers: workers, NoSteal: true})
			defer s.Close()
			var depth atomic.Int32
			chain := make([]*chainLink, links)
			for i := range chain {
				chain[i] = &chainLink{depth: &depth}
				if i > 0 {
					chain[i-1].next = chain[i]
				}
			}
			done := make(chan error, links)
			for _, c := range chain {
				wk, err := s.GoExternal(time.Now().Add(30*time.Second), func(err error) { done <- err }, c)
				if err != nil {
					t.Fatal(err)
				}
				c.wake = wk
			}
			// Every link parked before the chain starts, so each Wake finds
			// its session parked.
			parked := func() int {
				n := 0
				for _, c := range chain {
					if c.wake.isParked() {
						n++
					}
				}
				return n
			}
			for start := time.Now(); parked() < links; time.Sleep(time.Millisecond) {
				if time.Since(start) > 10*time.Second {
					t.Fatalf("%d of %d links parked", parked(), links)
				}
			}
			chain[0].turn.Store(true)
			chain[0].wake.Wake()
			for i := 0; i < links; i++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(20 * time.Second):
					t.Fatalf("%d of %d links ran: a nested wake was lost", i, links)
				}
			}
			if d, bound := depth.Load(), int32(workers+1); d > bound {
				t.Fatalf("visits nested %d deep, want at most %d", d, bound)
			}
			if workers > 1 && depth.Load() < 2 {
				t.Fatalf("visits nested %d deep: a wake from a visit never ran its session inline", depth.Load())
			}
		})
	}
}

// isParked reports whether k's session is parked awaiting a Wake, reading
// the mark under its owner's lock as Wake does.
func (k *Waker) isParked() bool {
	for {
		w := k.j.owner.Load()
		w.mu.Lock()
		if k.j.owner.Load() == w {
			p := k.j.waiting
			w.mu.Unlock()
			return p
		}
		w.mu.Unlock()
	}
}
