package channel

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// The TrySend contract, pinned per substrate: (true, nil) on success,
// (false, nil) when full, (false, ErrClosed) once closed — with closure
// winning over fullness — mirroring the TryRecv contract the receivers
// already satisfy. These run under -race via `make race`.

// trySubstrate is the common shape of the substrates under test.
type trySubstrate interface {
	Sender
	Receiver
	Close()
}

func msg(label string) Message { return Message{Label: "m", Value: label} }

func TestTrySendUnboundedNeverFull(t *testing.T) {
	for name, q := range map[string]trySubstrate{
		"queue":     NewQueue(),
		"ringqueue": NewRingQueue(),
		"local":     NewLocal(),
	} {
		for i := 0; i < 1000; i++ {
			ok, err := q.TrySend(msg("x"))
			if !ok || err != nil {
				t.Fatalf("%s: TrySend %d = (%v, %v), want (true, nil)", name, i, ok, err)
			}
		}
		q.Close()
		if ok, err := q.TrySend(msg("x")); ok || !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: TrySend after close = (%v, %v), want (false, ErrClosed)", name, ok, err)
		}
		// The 1000 buffered messages still drain in order after close.
		for i := 0; i < 1000; i++ {
			if _, ok, err := q.TryRecv(); !ok || err != nil {
				t.Fatalf("%s: drain %d = (%v, %v)", name, i, ok, err)
			}
		}
		if _, ok, err := q.TryRecv(); ok || !errors.Is(err, ErrClosed) {
			t.Fatalf("%s: TryRecv after drain = (%v, %v), want (false, ErrClosed)", name, ok, err)
		}
	}
}

func TestTrySendBoundedFullRing(t *testing.T) {
	const k = 3
	q := NewRing(k)
	for i := 0; i < k; i++ {
		if ok, err := q.TrySend(msg("x")); !ok || err != nil {
			t.Fatalf("TrySend %d = (%v, %v), want (true, nil)", i, ok, err)
		}
	}
	// Full: refused without error, repeatedly (the probe must not corrupt
	// producer-side state).
	for i := 0; i < 10; i++ {
		if ok, err := q.TrySend(msg("over")); ok || err != nil {
			t.Fatalf("TrySend on full = (%v, %v), want (false, nil)", ok, err)
		}
	}
	// One receive frees exactly one slot.
	if _, ok, err := q.TryRecv(); !ok || err != nil {
		t.Fatalf("TryRecv = (%v, %v)", ok, err)
	}
	if ok, err := q.TrySend(msg("x")); !ok || err != nil {
		t.Fatalf("TrySend after one recv = (%v, %v), want (true, nil)", ok, err)
	}
	if ok, err := q.TrySend(msg("x")); ok || err != nil {
		t.Fatalf("TrySend on refull = (%v, %v), want (false, nil)", ok, err)
	}
}

func TestTrySendClosedWinsOverFull(t *testing.T) {
	q := NewRing(1)
	if ok, err := q.TrySend(msg("x")); !ok || err != nil {
		t.Fatalf("fill = (%v, %v)", ok, err)
	}
	q.Close()
	if ok, err := q.TrySend(msg("y")); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("TrySend on closed+full = (%v, %v), want (false, ErrClosed)", ok, err)
	}
	// The buffered message still drains.
	if m, ok, err := q.TryRecv(); !ok || err != nil || m.Value != "x" {
		t.Fatalf("drain = (%v, %v, %v)", m, ok, err)
	}
	if _, ok, err := q.TryRecv(); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("TryRecv after drain = (%v, %v), want ErrClosed", ok, err)
	}
}

// TestTrySendWhileReceiverParked pins the wake-up half of the contract: a
// receiver parked in a blocking Recv on an empty ring is woken by TrySend
// exactly as by Send (TrySend must publish through the same gate).
func TestTrySendWhileReceiverParked(t *testing.T) {
	for name, q := range map[string]trySubstrate{
		"ring":      NewRing(2),
		"ringqueue": NewRingQueue(),
		"queue":     NewQueue(),
	} {
		got := make(chan Message, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := q.Recv() // parks: the substrate is empty
			if err != nil {
				t.Errorf("%s: Recv: %v", name, err)
				return
			}
			got <- m
		}()
		for {
			ok, err := q.TrySend(msg("wake"))
			if err != nil {
				t.Fatalf("%s: TrySend: %v", name, err)
			}
			if ok {
				break
			}
			runtime.Gosched()
		}
		wg.Wait()
		if m := <-got; m.Value != "wake" {
			t.Fatalf("%s: parked receiver got %v", name, m.Value)
		}
	}
}

// TestTrySendCloseWhileSenderRetrying pins the closed-while-parked
// interleaving from the sender's side: a producer spinning on TrySend
// against a full ring observes ErrClosed promptly once any goroutine closes
// the ring — it can never spin forever against a dead peer.
func TestTrySendCloseWhileSenderRetrying(t *testing.T) {
	q := NewRing(1)
	if ok, err := q.TrySend(msg("fill")); !ok || err != nil {
		t.Fatalf("fill = (%v, %v)", ok, err)
	}
	done := make(chan error, 1)
	go func() {
		// Retry loop: the ring stays full (nobody receives), so the probe
		// returns (false, nil) until Close flips it to ErrClosed.
		for {
			ok, err := q.TrySend(msg("spin"))
			if err != nil {
				done <- err
				return
			}
			if ok {
				done <- nil
				return
			}
			runtime.Gosched()
		}
	}()
	q.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("retrying TrySend ended with %v, want ErrClosed", err)
	}
}

// TestCloseWhileBlockedSendAndTryRecvDrain pins the other closed-while-parked
// interleaving: a blocking Send parked on a full ring is released by Close
// with ErrClosed, and the buffered prefix remains receivable.
func TestCloseWhileBlockedSendAndTryRecvDrain(t *testing.T) {
	q := NewRing(1)
	if ok, err := q.TrySend(msg("kept")); !ok || err != nil {
		t.Fatalf("fill = (%v, %v)", ok, err)
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- q.Send(msg("lost")) // parks: ring is full
	}()
	q.Close()
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("parked Send released with %v, want ErrClosed", err)
	}
	if m, ok, err := q.TryRecv(); !ok || err != nil || m.Value != "kept" {
		t.Fatalf("drain after close = (%v, %v, %v)", m, ok, err)
	}
	if _, ok, err := q.TryRecv(); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain TryRecv = (%v, %v), want ErrClosed", ok, err)
	}
}

// TestTrySendRecvStress drives a producer doing TrySend-with-retry against a
// consumer doing TryRecv-with-retry across goroutines; under -race this
// checks the probe paths carry the same happens-before edges as the blocking
// paths (payload writes must be visible to the receiver).
func TestTrySendRecvStress(t *testing.T) {
	for name, q := range map[string]trySubstrate{
		"ring":      NewRing(4),
		"ringqueue": NewRingQueue(),
		"queue":     NewQueue(),
	} {
		const n = 5000
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				for {
					ok, err := q.TrySend(Message{Label: "m", Value: i})
					if err != nil {
						t.Errorf("%s: TrySend: %v", name, err)
						return
					}
					if ok {
						break
					}
					// Yield on refusal: on a single-P runtime a tight probe
					// loop starves the peer until async preemption kicks in.
					runtime.Gosched()
				}
			}
		}()
		for i := 0; i < n; i++ {
			for {
				m, ok, err := q.TryRecv()
				if err != nil {
					t.Fatalf("%s: TryRecv: %v", name, err)
				}
				if !ok {
					runtime.Gosched()
					continue
				}
				if m.Value.(int) != i {
					t.Fatalf("%s: message %d arrived out of order as %v", name, i, m.Value)
				}
				break
			}
		}
		wg.Wait()
		q.Close()
	}
}
