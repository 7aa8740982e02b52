package channel

import (
	"sync"
	"testing"
	"time"
)

// These tests pin the close contract of the SPSC substrates' batch probe
// (TrySendN) and of the batch send built on it (sendAll: TrySendN, WaitSend
// while full — Endpoint.SendN's loop): how many messages of an interrupted
// batch are delivered, and that the interruption is reported as a single
// (count, ErrClosed) return — not a panic, not a per-message error, not a
// silent truncation.

// TestRingSendNCloseMidBatch: a batch waiting on a full bounded ring is cut
// short by Close; the messages published before the close are exactly the
// ones delivered, and the batch reports ErrClosed exactly once with the
// accurate count.
func TestRingSendNCloseMidBatch(t *testing.T) {
	r := NewRing(2)
	ms := make([]Message, 5)
	for i := range ms {
		ms[i] = Message{Label: "v", Value: i}
	}
	type result struct {
		sent int
		err  error
	}
	done := make(chan result, 1)
	go func() {
		sent, err := sendAll(r, ms)
		done <- result{sent, err}
	}()
	// Wait until the producer has filled the ring and parked on the full
	// window, then close underneath it.
	deadline := time.Now().Add(5 * time.Second)
	for r.Len() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("producer never filled the ring")
		}
		time.Sleep(time.Millisecond)
	}
	r.Close()
	res := <-done
	if res.err != ErrClosed {
		t.Fatalf("batch send error = %v, want ErrClosed", res.err)
	}
	if res.sent != 2 {
		t.Fatalf("batch sent = %d, want the 2 messages published before the close", res.sent)
	}
	// Every published message of the partial batch is still receivable, in
	// order; after the drain the close is reported (again as ErrClosed, on
	// the receive side).
	for i := 0; i < res.sent; i++ {
		m, err := r.Recv()
		if err != nil {
			t.Fatalf("draining message %d: %v", i, err)
		}
		if m.Value != i {
			t.Fatalf("message %d = %v, want %d (partial batch must be a prefix)", i, m.Value, i)
		}
	}
	if _, err := r.Recv(); err != ErrClosed {
		t.Fatalf("Recv after drain = %v, want ErrClosed", err)
	}
}

// TestRingSendNAfterClose: a batch probe after the close delivers nothing
// and reports the close; before it, a probe on a full ring delivers the
// prefix that fits and then nothing, with no error.
func TestRingSendNAfterClose(t *testing.T) {
	r := NewRing(4)
	ms := make([]Message, 6)
	if sent, err := r.TrySendN(ms); sent != 4 || err != nil {
		t.Fatalf("TrySendN on an empty ring = (%d, %v), want (4, nil)", sent, err)
	}
	if sent, err := r.TrySendN(ms[4:]); sent != 0 || err != nil {
		t.Fatalf("TrySendN on a full ring = (%d, %v), want (0, nil)", sent, err)
	}
	r.Close()
	sent, err := r.TrySendN([]Message{{Label: "v"}, {Label: "v"}})
	if sent != 0 || err != ErrClosed {
		t.Fatalf("TrySendN after close = (%d, %v), want (0, ErrClosed)", sent, err)
	}
}

// TestRingQueueSendNCloseContract pins the unbounded queue's all-or-nothing
// entry check: TrySendN never runs out of room, so a batch either starts
// before the close and publishes every message, or starts after it and
// publishes none.
func TestRingQueueSendNCloseContract(t *testing.T) {
	q := NewRingQueue()
	ms := make([]Message, 3*ringSegLen) // spans several segments
	for i := range ms {
		ms[i] = Message{Label: "v", Value: i}
	}
	sent, err := q.TrySendN(ms)
	if sent != len(ms) || err != nil {
		t.Fatalf("TrySendN = (%d, %v), want (%d, nil)", sent, err, len(ms))
	}
	q.Close()
	for i := range ms {
		m, err := q.Recv()
		if err != nil {
			t.Fatalf("draining message %d after close: %v", i, err)
		}
		if m.Value != i {
			t.Fatalf("message %d = %v, want %d", i, m.Value, i)
		}
	}
	if _, err := q.Recv(); err != ErrClosed {
		t.Fatalf("Recv after drain = %v, want ErrClosed", err)
	}
	if sent, err := q.TrySendN(ms[:2]); sent != 0 || err != ErrClosed {
		t.Fatalf("TrySendN after close = (%d, %v), want (0, ErrClosed)", sent, err)
	}
}

// TestRingSendNCloseStress exercises the partial-batch contract under the
// race detector: whatever prefix an interrupted batch reports as sent is an
// upper bound on what the drain observes, the drained values are a strict
// FIFO prefix, and nothing panics or deadlocks.
func TestRingSendNCloseStress(t *testing.T) {
	for round := 0; round < 50; round++ {
		r := NewRing(8)
		batch := make([]Message, 64)
		for i := range batch {
			batch[i] = Message{Label: "v", Value: i}
		}
		var wg sync.WaitGroup
		var sent int
		var sendErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent, sendErr = sendAll(r, batch)
		}()
		var received int
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, err := r.Recv()
				if err != nil {
					return
				}
				if m.Value != received {
					t.Errorf("round %d: received %v at position %d (not a FIFO prefix)", round, m.Value, received)
					return
				}
				received++
			}
		}()
		time.Sleep(time.Duration(round%3) * 100 * time.Microsecond)
		r.Close()
		wg.Wait()
		if sendErr == nil && sent != len(batch) {
			t.Fatalf("round %d: nil error but only %d of %d sent", round, sent, len(batch))
		}
		if sendErr != nil && sendErr != ErrClosed {
			t.Fatalf("round %d: batch send error = %v, want ErrClosed", round, sendErr)
		}
		if received > sent {
			t.Fatalf("round %d: drained %d messages but the batch reported %d sent", round, received, sent)
		}
	}
}
