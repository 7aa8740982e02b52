package channel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// This file pins the close-with-cause contract on every substrate: a party
// blocked in a blocking Recv, a later TrySend, and a batch send cut
// mid-batch all observe a *CloseError that (a) still satisfies
// errors.Is(err, ErrClosed) — the plain-close contract — and (b) unwraps to
// the root cause supplied to CloseWithError. Plain Close keeps returning the
// bare ErrClosed, and the first cause wins over later closes. Run under
// -race (make race), these tests also pin that the cause publication
// happens-before its observation.

var errBoom = errors.New("boom: peer crashed")

// causeSubstrates returns one fresh instance of each of the four
// substrates, plus the ring whose waits park at once and a fault-free
// Faulty, whose blocking Recv is its own probe-and-wait. The rings get
// capacity 2 so fill-up paths are easy to reach.
func causeSubstrates() map[string]Substrate {
	return map[string]Substrate{
		"queue":       NewQueue(),
		"ring":        NewRing(2),
		"parkingring": NewParkingRing(2),
		"ringqueue":   NewRingQueue(),
		"local":       NewLocal(),
		"faulty":      NewFaulty(NewRing(2), FaultPlan{}),
	}
}

// assertCauseChain checks the full error chain of a cause-carrying close.
func assertCauseChain(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected a close error, got nil")
	}
	if !errors.Is(err, ErrClosed) {
		t.Errorf("errors.Is(err, ErrClosed) = false for %v", err)
	}
	if !errors.Is(err, errBoom) {
		t.Errorf("errors.Is(err, errBoom) = false for %v", err)
	}
	var ce *CloseError
	if !errors.As(err, &ce) {
		t.Errorf("errors.As(err, *CloseError) = false for %v", err)
	} else if ce.Cause != errBoom {
		t.Errorf("CloseError.Cause = %v, want errBoom", ce.Cause)
	}
}

func TestCloseWithErrorCauseVisibleToParkedRecv(t *testing.T) {
	for name, s := range causeSubstrates() {
		s := s
		t.Run(name, func(t *testing.T) {
			errc := make(chan error, 1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := s.Recv() // parks: nothing was sent
				errc <- err
			}()
			s.CloseWithError(errBoom)
			wg.Wait()
			assertCauseChain(t, <-errc)
		})
	}
}

func TestCloseWithErrorCauseVisibleToLaterTrySendAndTryRecv(t *testing.T) {
	for name, s := range causeSubstrates() {
		s := s
		t.Run(name, func(t *testing.T) {
			s.CloseWithError(errBoom)
			ok, err := s.TrySend(Message{Label: "l"})
			if ok {
				t.Fatalf("TrySend accepted a message on a closed substrate")
			}
			assertCauseChain(t, err)
			_, _, err = s.TryRecv()
			assertCauseChain(t, err)
		})
	}
}

// TestCloseWithErrorCauseAfterSendNPartialBatch pins the batched contract on
// the bounded ring: a batch send (TrySendN, WaitSend while full) cut
// mid-batch by a cause-carrying close delivers a prefix and returns the
// cause.
func TestCloseWithErrorCauseAfterSendNPartialBatch(t *testing.T) {
	r := NewRing(2)
	ms := make([]Message, 8)
	for i := range ms {
		ms[i] = Message{Label: "v", Value: i}
	}
	var wg sync.WaitGroup
	var sent int
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sent, sendErr = sendAll(r, ms) // waits at capacity 2 with no receiver
	}()
	// Wait until the sender has filled the ring, then kill the route.
	for r.Len() < 2 {
		runtime.Gosched()
	}
	r.CloseWithError(errBoom)
	wg.Wait()
	if sent >= len(ms) {
		t.Fatalf("SendN reported a full batch across a close")
	}
	assertCauseChain(t, sendErr)
	// The delivered prefix is still receivable; after the drain the
	// receiver observes the same cause.
	for i := 0; i < sent; i++ {
		if _, err := r.Recv(); err != nil {
			t.Fatalf("draining message %d of the prefix: %v", i, err)
		}
	}
	_, err := r.Recv()
	assertCauseChain(t, err)
}

func TestPlainCloseKeepsBareErrClosed(t *testing.T) {
	for name, s := range causeSubstrates() {
		s := s
		t.Run(name, func(t *testing.T) {
			s.Close()
			_, _, err := s.TryRecv()
			if err != ErrClosed {
				t.Fatalf("plain Close: TryRecv err = %#v, want bare ErrClosed", err)
			}
		})
	}
}

func TestCloseWithErrorFirstCauseWins(t *testing.T) {
	later := errors.New("later cause")
	for name, s := range causeSubstrates() {
		s := s
		t.Run(name, func(t *testing.T) {
			s.CloseWithError(errBoom)
			s.CloseWithError(later)
			s.Close()
			_, _, err := s.TryRecv()
			assertCauseChain(t, err)
			if errors.Is(err, later) {
				t.Errorf("later cause overwrote the first: %v", err)
			}
		})
	}
}

// TestCloseAfterCloseWithErrorKeepsDrainThenCause pins that a closed-with-
// cause substrate still delivers buffered messages before reporting the
// cause (drain semantics are unchanged by the cause).
func TestCloseWithErrorDrainThenCause(t *testing.T) {
	for name, s := range causeSubstrates() {
		s := s
		t.Run(name, func(t *testing.T) {
			if err := s.Send(Message{Label: "v", Value: 1}); err != nil {
				t.Fatal(err)
			}
			s.CloseWithError(errBoom)
			m, err := s.Recv()
			if err != nil {
				t.Fatalf("buffered message not drained: %v", err)
			}
			if m.Value != 1 {
				t.Fatalf("drained %v, want 1", m.Value)
			}
			_, err = s.Recv()
			assertCauseChain(t, err)
		})
	}
}

// TestCloseWithErrorCauseUnderConcurrentTraffic stresses the cause
// publication under -race: a producer/consumer pair runs full speed while a
// third goroutine closes with cause; afterwards both sides must have
// observed either clean progress or the full cause chain — never a bare
// ErrClosed.
func TestCloseWithErrorCauseUnderConcurrentTraffic(t *testing.T) {
	for name, mk := range map[string]func() Substrate{
		"ring":        func() Substrate { return NewRing(4) },
		"parkingring": func() Substrate { return NewParkingRing(4) },
		"ringqueue":   func() Substrate { return NewRingQueue() },
		"queue":       func() Substrate { return NewQueue() },
	} {
		mk := mk
		t.Run(name, func(t *testing.T) {
			for iter := 0; iter < 50; iter++ {
				s := mk()
				var wg sync.WaitGroup
				errs := make(chan error, 2)
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						if err := s.Send(Message{Label: "v", Value: i}); err != nil {
							errs <- err
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					for {
						if _, err := s.Recv(); err != nil {
							errs <- err
							return
						}
					}
				}()
				s.CloseWithError(errBoom)
				wg.Wait()
				close(errs)
				for err := range errs {
					assertCauseChain(t, err)
				}
			}
		})
	}
}

// TestLocalCloseWhileOwnerProbes is the concurrent-close test for the
// single-owner substrate, whose sends and receives never run on two
// goroutines at once: the owner probes with TrySend and TryRecv, letting a
// backlog build so the buffer grows, while another goroutine closes with
// cause. Under -race this pins that Close touches only the shared close
// state. The owner sees its messages in order, and the close error — the
// full cause chain — only once it has drained them, on both probes.
func TestLocalCloseWhileOwnerProbes(t *testing.T) {
	const most = 1000 // sends per run; later probes only receive
	for iter := 0; iter < 50; iter++ {
		q := NewLocal()
		done := make(chan struct{})
		go func() {
			defer close(done)
			sent, got := 0, 0
			for {
				if sent < most {
					if ok, err := q.TrySend(Message{Label: "v", Value: sent}); ok {
						sent++
					} else {
						assertCauseChain(t, err)
						break
					}
					if sent%3 == 0 {
						continue
					}
				}
				m, ok, err := q.TryRecv()
				if err != nil {
					if got != sent {
						t.Errorf("TryRecv reported %v with %d messages buffered", err, sent-got)
					}
					break
				}
				if ok {
					if m.Value != got {
						t.Errorf("got %v, want %d", m.Value, got)
						return
					}
					got++
				}
			}
			for ; got < sent; got++ {
				if m, ok, err := q.TryRecv(); !ok || err != nil || m.Value != got {
					t.Errorf("drain %d of %d = (%v, %v, %v)", got, sent, m, ok, err)
					return
				}
			}
			_, _, err := q.TryRecv()
			assertCauseChain(t, err)
			_, err = q.TrySend(Message{Label: "v"})
			assertCauseChain(t, err)
		}()
		runtime.Gosched()
		q.CloseWithError(errBoom)
		<-done
	}
}

// --- Faulty ---

// faultySequence records the observable outcome of a fixed operation script
// against a Faulty-wrapped ring queue.
func faultySequence(plan FaultPlan, ops int) []string {
	f := NewFaulty(NewRingQueue(), plan)
	var log []string
	for i := 0; i < ops; i++ {
		if i%2 == 0 {
			ok, err := f.TrySend(Message{Label: "v", Value: i})
			log = append(log, fmt.Sprintf("send:%v:%v", ok, err))
		} else {
			_, ok, err := f.TryRecv()
			log = append(log, fmt.Sprintf("recv:%v:%v", ok, err))
		}
	}
	return log
}

func TestFaultyDeterministicPerSeed(t *testing.T) {
	plan := FaultPlan{Seed: 42, WouldBlockP: 300, CloseAfter: 37}
	a := faultySequence(plan, 64)
	b := faultySequence(plan, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %q vs %q", i, a[i], b[i])
		}
	}
	other := faultySequence(FaultPlan{Seed: 43, WouldBlockP: 300, CloseAfter: 37}, 64)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical fault schedules")
	}
}

func TestFaultyInjectedCloseCarriesCause(t *testing.T) {
	f := NewFaulty(NewRingQueue(), FaultPlan{Seed: 7, CloseAfter: 5})
	var last error
	for i := 0; i < 32; i++ {
		_, err := f.TrySend(Message{Label: "v", Value: i})
		if err != nil {
			last = err
			break
		}
	}
	if last == nil {
		t.Fatalf("injected close never fired")
	}
	if !errors.Is(last, ErrInjected) || !errors.Is(last, ErrClosed) {
		t.Fatalf("injected close error %v does not carry ErrInjected under ErrClosed", last)
	}
}

func TestFaultyStallYieldsWouldBlockUntilClose(t *testing.T) {
	f := NewFaulty(NewRingQueue(), FaultPlan{Seed: 1, StallAfter: 1})
	for i := 0; i < 16; i++ {
		ok, err := f.TrySend(Message{Label: "v"})
		if ok || err != nil {
			t.Fatalf("stalled route made progress at op %d (ok=%v err=%v)", i, ok, err)
		}
	}
	f.CloseWithError(errBoom)
	_, err := f.TrySend(Message{Label: "v"})
	assertCauseChain(t, err)
}

// TestFaultyTransparentWithoutFaults pins that a zero plan is a no-op
// wrapper: messages flow through unperturbed.
func TestFaultyTransparentWithoutFaults(t *testing.T) {
	f := NewFaulty(NewRing(2), FaultPlan{})
	for i := 0; i < 100; i++ {
		if ok, err := f.TrySend(Message{Label: "v", Value: i}); !ok || err != nil {
			t.Fatalf("send %d refused (ok=%v err=%v)", i, ok, err)
		}
		m, ok, err := f.TryRecv()
		if !ok || err != nil || m.Value != i {
			t.Fatalf("recv %d got (%v, %v, %v)", i, m.Value, ok, err)
		}
	}
	f.Close()
	if _, _, err := f.TryRecv(); err != ErrClosed {
		t.Fatalf("plain close through Faulty: %v, want bare ErrClosed", err)
	}
}
