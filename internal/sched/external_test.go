package sched

import (
	"errors"
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
