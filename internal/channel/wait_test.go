package channel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// This file pins the deadline-wait half of the Substrate contract
// (WaitSend, WaitRecv): a waiter parks until the peer's progress, a close
// (with its cause) or the deadline releases it; a timed-out wait leaves the
// route exactly as it was; and the Faulty wrapper's waits follow its
// faults — at once after a spurious refusal, held on a stall until close or
// deadline. Each table test also runs the blocking operation built on the
// wait (Send, Recv: a probe, then the wait, repeated) where it runs the
// wait, so the blocking methods are pinned by the same rows. The package is
// in `make race`, so these run under -race too.

// waitSubstrates builds each substrate under the wait contract. The rings
// get capacity 1, so a single message fills them.
func waitSubstrates() map[string]func() Substrate {
	return map[string]func() Substrate{
		"ring":        func() Substrate { return NewRing(1) },
		"parkingring": func() Substrate { return NewParkingRing(1) },
		"ringqueue":   func() Substrate { return NewRingQueue() },
		"queue":       func() Substrate { return NewQueue() },
		"local":       func() Substrate { return NewLocal() },
		"faulty":      func() Substrate { return NewFaulty(NewRing(1), FaultPlan{}) },
	}
}

// bounded reports whether a substrate fills, i.e. whether WaitSend can park.
func bounded(name string) bool { return name != "ringqueue" && name != "queue" && name != "local" }

// far is a deadline no test reaches: a wait that returns before it was
// released by the peer or a close, not by the alarm.
func far() time.Time { return time.Now().Add(time.Minute) }

// waitAsync runs wait on its own goroutine and returns its result channel,
// after checking the waiter is still parked 20ms later — a wait on a route
// that is not ready must not return.
func waitAsync(t *testing.T, wait func(time.Time) error) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- wait(far()) }()
	select {
	case err := <-done:
		t.Fatalf("wait returned %v on a route that is not ready", err)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

// blockingRecv is the blocking row of a receive-side wait: Recv in the
// wait's place (it ignores the wait's deadline and blocks without bound),
// keeping the message it took in *got.
func blockingRecv(s Substrate, got *Message) func(time.Time) error {
	return func(time.Time) error {
		m, err := s.Recv()
		*got = m
		return err
	}
}

// blockingSend is the blocking row of a send-side wait: Send(m) in the
// wait's place.
func blockingSend(s Substrate, m Message) func(time.Time) error {
	return func(time.Time) error { return s.Send(m) }
}

// fill sends until the substrate is full.
func fill(t *testing.T, s Substrate) {
	t.Helper()
	if ok, err := s.TrySend(Message{Label: "v", Value: 0}); !ok || err != nil {
		t.Fatalf("fill: TrySend = (%v, %v)", ok, err)
	}
	if ok, err := s.TrySend(Message{Label: "v", Value: 1}); ok || err != nil {
		t.Fatalf("capacity-1 substrate accepted a second message: (%v, %v)", ok, err)
	}
}

func TestWaitRecvReleasedBySend(t *testing.T) {
	for name, mk := range waitSubstrates() {
		if name == "local" {
			// One owner sends and receives, so no send can come while it
			// waits: TestWaitReleasedByClose and TestWaitDeadline pin the
			// only two releases of a Local's WaitRecv.
			continue
		}
		t.Run(name, func(t *testing.T) {
			for _, blocking := range []bool{false, true} {
				s := mk()
				var got Message
				wait := s.WaitRecv
				if blocking {
					wait = blockingRecv(s, &got)
				}
				done := waitAsync(t, wait)
				if err := s.Send(Message{Label: "v", Value: 7}); err != nil {
					t.Fatal(err)
				}
				if err := <-done; err != nil {
					t.Fatalf("wait (blocking=%v) = %v after a send", blocking, err)
				}
				if !blocking {
					var ok bool
					var err error
					if got, ok, err = s.TryRecv(); !ok || err != nil {
						t.Fatalf("TryRecv after the wait = (%v, %v)", ok, err)
					}
				}
				if got.Value != 7 {
					t.Fatalf("received %v (blocking=%v), want 7", got.Value, blocking)
				}
			}
		})
	}
}

func TestWaitSendReleasedByRecv(t *testing.T) {
	for name, mk := range waitSubstrates() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if !bounded(name) {
				// An unbounded substrate never fills: the wait is immediate.
				if err := s.WaitSend(far()); err != nil {
					t.Fatalf("WaitSend on an unbounded substrate = %v", err)
				}
				return
			}
			fill(t, s)
			done := waitAsync(t, s.WaitSend)
			if m, err := s.Recv(); err != nil || m.Value != 0 {
				t.Fatalf("Recv = (%v, %v)", m, err)
			}
			if err := <-done; err != nil {
				t.Fatalf("WaitSend = %v after a receive", err)
			}
			if ok, err := s.TrySend(Message{Label: "v", Value: 1}); !ok || err != nil {
				t.Fatalf("TrySend after the wait = (%v, %v)", ok, err)
			}
			// The blocking row: a Send parked on the full route is taken
			// once the receiver frees the slot.
			done = waitAsync(t, blockingSend(s, Message{Label: "v", Value: 2}))
			if m, err := s.Recv(); err != nil || m.Value != 1 {
				t.Fatalf("Recv = (%v, %v)", m, err)
			}
			if err := <-done; err != nil {
				t.Fatalf("blocked Send = %v after a receive", err)
			}
			if m, err := s.Recv(); err != nil || m.Value != 2 {
				t.Fatalf("Recv of the blocked send = (%v, %v)", m, err)
			}
		})
	}
}

// Close releases a parked waiter with ErrClosed and CloseWithError with its
// cause, on both sides.
func TestWaitReleasedByClose(t *testing.T) {
	closes := map[string]func(Substrate){
		"close":     func(s Substrate) { s.Close() },
		"withcause": func(s Substrate) { s.CloseWithError(errBoom) },
	}
	for name, mk := range waitSubstrates() {
		for how, closeIt := range closes {
			check := func(t *testing.T, err error) {
				t.Helper()
				if how == "withcause" {
					assertCauseChain(t, err)
				} else if err != ErrClosed {
					t.Fatalf("err = %v, want the bare ErrClosed", err)
				}
			}
			t.Run(name+"/"+how+"/recv", func(t *testing.T) {
				for _, blocking := range []bool{false, true} {
					s := mk()
					wait := s.WaitRecv
					if blocking {
						wait = blockingRecv(s, new(Message))
					}
					done := waitAsync(t, wait)
					closeIt(s)
					check(t, <-done)
				}
			})
			if !bounded(name) {
				continue
			}
			t.Run(name+"/"+how+"/send", func(t *testing.T) {
				for _, blocking := range []bool{false, true} {
					s := mk()
					fill(t, s)
					wait := s.WaitSend
					if blocking {
						wait = blockingSend(s, Message{Label: "v", Value: 1})
					}
					done := waitAsync(t, wait)
					closeIt(s)
					check(t, <-done)
					// The message buffered before the close still drains.
					if m, err := s.Recv(); err != nil || m.Value != 0 {
						t.Fatalf("drain after close = (%v, %v)", m, err)
					}
				}
			})
		}
	}
}

// A closed route that still buffers messages is ready to receive: the
// drain comes before the close error, as for Recv.
func TestWaitRecvDrainsBeforeClose(t *testing.T) {
	for name, mk := range waitSubstrates() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if err := s.Send(Message{Label: "v"}); err != nil {
				t.Fatal(err)
			}
			s.CloseWithError(errBoom)
			if err := s.WaitRecv(far()); err != nil {
				t.Fatalf("WaitRecv on a closed, undrained route = %v", err)
			}
			if _, ok, _ := s.TryRecv(); !ok {
				t.Fatal("buffered message lost")
			}
			assertCauseChain(t, s.WaitRecv(far()))
		})
	}
}

// A wait on a route that stays unready times out no earlier than its
// deadline and leaves the route as it was.
func TestWaitDeadline(t *testing.T) {
	const d = 30 * time.Millisecond
	for name, mk := range waitSubstrates() {
		t.Run(name+"/recv", func(t *testing.T) {
			s := mk()
			start := time.Now()
			if err := s.WaitRecv(start.Add(d)); err != ErrDeadline {
				t.Fatalf("WaitRecv on an empty route = %v, want ErrDeadline", err)
			}
			if el := time.Since(start); el < d {
				t.Fatalf("timed out after %v, before the %v deadline", el, d)
			}
			// The blocking receive under a deadline times out the same way.
			start = time.Now()
			if _, err := Recv(s, start.Add(d)); err != ErrDeadline {
				t.Fatalf("Recv with a deadline on an empty route = %v, want ErrDeadline", err)
			}
			if el := time.Since(start); el < d {
				t.Fatalf("timed out after %v, before the %v deadline", el, d)
			}
			if _, ok, err := s.TryRecv(); ok || err != nil {
				t.Fatalf("route changed by the timed-out wait: TryRecv = (%v, %v)", ok, err)
			}
			if err := s.Send(Message{Label: "v", Value: 1}); err != nil {
				t.Fatal(err)
			}
			if m, err := s.Recv(); err != nil || m.Value != 1 {
				t.Fatalf("route unusable after a timed-out wait: (%v, %v)", m, err)
			}
		})
		if !bounded(name) {
			continue
		}
		t.Run(name+"/send", func(t *testing.T) {
			s := mk()
			fill(t, s)
			start := time.Now()
			if err := s.WaitSend(start.Add(d)); err != ErrDeadline {
				t.Fatalf("WaitSend on a full route = %v, want ErrDeadline", err)
			}
			if el := time.Since(start); el < d {
				t.Fatalf("timed out after %v, before the %v deadline", el, d)
			}
			// The blocking send under a deadline times out with nothing
			// sent.
			start = time.Now()
			if err := Send(s, Message{Label: "v", Value: 1}, start.Add(d)); err != ErrDeadline {
				t.Fatalf("Send with a deadline on a full route = %v, want ErrDeadline", err)
			}
			if el := time.Since(start); el < d {
				t.Fatalf("timed out after %v, before the %v deadline", el, d)
			}
			if m, err := s.Recv(); err != nil || m.Value != 0 {
				t.Fatalf("buffered message changed by the timed-out wait: (%v, %v)", m, err)
			}
			if _, ok, err := s.TryRecv(); ok || err != nil {
				t.Fatalf("timed-out wait left a message behind: (%v, %v)", ok, err)
			}
		})
	}
}

// Waiters with different deadlines share one alarm: the earlier deadline
// fires on time even when a later one was armed first, and the later waiter
// stays parked until its own release.
func TestWaitAlarmEarliestDeadline(t *testing.T) {
	q := NewQueue() // multi-consumer, so two waiters may park at once
	late := waitAsync(t, q.WaitRecv)
	start := time.Now()
	if err := q.WaitRecv(start.Add(30 * time.Millisecond)); err != ErrDeadline {
		t.Fatalf("early waiter = %v, want ErrDeadline", err)
	}
	if el := time.Since(start); el > 20*time.Second {
		t.Fatalf("early waiter held until the late alarm: %v", el)
	}
	select {
	case err := <-late:
		t.Fatalf("late waiter released by the early deadline: %v", err)
	default:
	}
	if err := q.Send(Message{Label: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := <-late; err != nil {
		t.Fatalf("late waiter = %v after a send", err)
	}
}

// After a spurious would-block refusal the retry passes through, so the
// wait returns at once — on an empty (or full) inner route, where waiting
// on the inner substrate would park until the deadline.
func TestFaultyWaitAfterRefusal(t *testing.T) {
	refuse := FaultPlan{Seed: 1, WouldBlockP: 1000}
	t.Run("recv", func(t *testing.T) {
		f := NewFaulty(NewRing(1), refuse)
		if _, ok, err := f.TryRecv(); ok || err != nil {
			t.Fatalf("first probe not refused: (%v, %v)", ok, err)
		}
		if err := f.WaitRecv(far()); err != nil {
			t.Fatalf("WaitRecv after a refusal = %v, want nil at once", err)
		}
		// The retry reaches the empty inner ring; only now does the wait
		// park on it.
		if _, ok, err := f.TryRecv(); ok || err != nil {
			t.Fatalf("retry on an empty route = (%v, %v)", ok, err)
		}
		if err := f.WaitRecv(time.Now().Add(10 * time.Millisecond)); err != ErrDeadline {
			t.Fatalf("WaitRecv on the empty inner route = %v, want ErrDeadline", err)
		}
	})
	t.Run("send", func(t *testing.T) {
		inner := NewRing(1)
		f := NewFaulty(inner, refuse)
		if ok, err := inner.TrySend(Message{Label: "v"}); !ok || err != nil {
			t.Fatalf("fill inner: (%v, %v)", ok, err)
		}
		if ok, err := f.TrySend(Message{Label: "v"}); ok || err != nil {
			t.Fatalf("first probe not refused: (%v, %v)", ok, err)
		}
		if err := f.WaitSend(far()); err != nil {
			t.Fatalf("WaitSend after a refusal = %v, want nil at once", err)
		}
		if ok, err := f.TrySend(Message{Label: "v"}); ok || err != nil {
			t.Fatalf("retry on a full route = (%v, %v)", ok, err)
		}
		if err := f.WaitSend(time.Now().Add(10 * time.Millisecond)); err != ErrDeadline {
			t.Fatalf("WaitSend on the full inner route = %v, want ErrDeadline", err)
		}
	})
}

// A stalled route refuses every probe until it is closed, so its waiter is
// held until the close or the deadline — even while the inner route is
// ready, where a wait on the inner substrate would return at once and the
// caller would spin.
func TestFaultyStallHoldsWaiter(t *testing.T) {
	stallNow := FaultPlan{StallAfter: 1}
	readyInner := func() *RingQueue {
		inner := NewRingQueue()
		if err := inner.Send(Message{Label: "v"}); err != nil {
			t.Fatal(err)
		}
		return inner
	}
	t.Run("deadline", func(t *testing.T) {
		f := NewFaulty(readyInner(), stallNow)
		if _, ok, err := f.TryRecv(); ok || err != nil {
			t.Fatalf("stalled probe = (%v, %v)", ok, err)
		}
		const d = 30 * time.Millisecond
		for _, wait := range []func(time.Time) error{f.WaitRecv, f.WaitSend} {
			start := time.Now()
			if err := wait(start.Add(d)); err != ErrDeadline {
				t.Fatalf("wait on a stalled route = %v, want ErrDeadline", err)
			}
			if el := time.Since(start); el < d {
				t.Fatalf("stalled wait returned after %v, before the %v deadline", el, d)
			}
		}
	})
	t.Run("close", func(t *testing.T) {
		f := NewFaulty(readyInner(), stallNow)
		done := waitAsync(t, f.WaitRecv)
		f.CloseWithError(errBoom)
		// The close lifts the stall: the buffered message drains first.
		if err := <-done; err != nil {
			t.Fatalf("WaitRecv after close = %v, want nil (message buffered)", err)
		}
		if _, ok, err := f.TryRecv(); !ok || err != nil {
			t.Fatalf("drain after close = (%v, %v)", ok, err)
		}
		assertCauseChain(t, f.WaitRecv(far()))
	})
	t.Run("blocking-recv", func(t *testing.T) {
		// A blocking Recv is the probe-and-wait loop too, so the stall
		// holds it although the inner route holds a message: it must not
		// return before the close, and then it takes that message.
		f := NewFaulty(NewRingQueue(), FaultPlan{StallAfter: 2})
		if err := f.Send(Message{Label: "v", Value: 5}); err != nil {
			t.Fatalf("send before the stall: %v", err)
		}
		var closed atomic.Bool
		type result struct {
			m      Message
			err    error
			closed bool
		}
		done := make(chan result, 1)
		go func() {
			m, err := f.Recv()
			done <- result{m, err, closed.Load()}
		}()
		time.Sleep(20 * time.Millisecond)
		closed.Store(true)
		f.Close()
		r := <-done
		if !r.closed {
			t.Fatalf("blocking Recv returned (%v, %v) on a stalled route before Close", r.m, r.err)
		}
		if r.err != nil || r.m.Value != 5 {
			t.Fatalf("blocking Recv after Close = (%v, %v), want the buffered message", r.m, r.err)
		}
	})
	t.Run("injected-close", func(t *testing.T) {
		// The operation that stalls the route also closes it (CloseAfter):
		// the stall no longer holds, and the wait reports the injected
		// cause.
		f := NewFaulty(NewRingQueue(), FaultPlan{StallAfter: 2, CloseAfter: 1})
		if ok, err := f.TrySend(Message{Label: "v"}); !ok || err != nil {
			t.Fatalf("send before the stall = (%v, %v)", ok, err)
		}
		if err := f.WaitSend(far()); !errors.Is(err, ErrInjected) {
			t.Fatalf("WaitSend after the injected close = %v, want ErrInjected", err)
		}
	})
}
