package channel

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 10; i++ {
		if err := q.Send(Message{Label: "l", Value: i}); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 10 {
		t.Errorf("Len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		m, err := q.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Value.(int) != i {
			t.Errorf("got %v at position %d", m.Value, i)
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len after drain = %d", q.Len())
	}
}

func TestQueueBlockingRecv(t *testing.T) {
	q := NewQueue()
	done := make(chan Message)
	go func() {
		m, err := q.Recv()
		if err != nil {
			t.Error(err)
		}
		done <- m
	}()
	if err := q.Send(Message{Label: "x", Value: 42}); err != nil {
		t.Fatal(err)
	}
	m := <-done
	if m.Value.(int) != 42 {
		t.Errorf("got %v", m.Value)
	}
}

func TestQueueTryRecv(t *testing.T) {
	q := NewQueue()
	if _, ok, err := q.TryRecv(); ok || err != nil {
		t.Errorf("TryRecv on empty = %v %v", ok, err)
	}
	q.Send(Message{Label: "a"})
	m, ok, err := q.TryRecv()
	if !ok || err != nil || m.Label != "a" {
		t.Errorf("TryRecv = %v %v %v", m, ok, err)
	}
}

func TestQueueClose(t *testing.T) {
	q := NewQueue()
	q.Send(Message{Label: "a"})
	q.Close()
	if err := q.Send(Message{Label: "b"}); err != ErrClosed {
		t.Errorf("Send after close = %v", err)
	}
	// The buffered message is still deliverable.
	m, err := q.Recv()
	if err != nil || m.Label != "a" {
		t.Errorf("Recv = %v %v", m, err)
	}
	if _, err := q.Recv(); err != ErrClosed {
		t.Errorf("Recv after drain = %v", err)
	}
	if _, _, err := q.TryRecv(); err != ErrClosed {
		t.Errorf("TryRecv after drain = %v", err)
	}
}

func TestQueueCloseUnblocksReceivers(t *testing.T) {
	q := NewQueue()
	done := make(chan error)
	go func() {
		_, err := q.Recv()
		done <- err
	}()
	q.Close()
	if err := <-done; err != ErrClosed {
		t.Errorf("blocked Recv after Close = %v", err)
	}
}

func TestQueueConcurrentSenders(t *testing.T) {
	q := NewQueue()
	const senders, each = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.Send(Message{Label: "l", Value: s*each + i})
			}
		}(s)
	}
	seen := map[int]bool{}
	for i := 0; i < senders*each; i++ {
		m, err := q.Recv()
		if err != nil {
			t.Fatal(err)
		}
		v := m.Value.(int)
		if seen[v] {
			t.Fatalf("duplicate delivery of %d", v)
		}
		seen[v] = true
	}
	wg.Wait()
	if len(seen) != senders*each {
		t.Errorf("delivered %d messages", len(seen))
	}
}

func TestQuickQueuePreservesOrderPerSender(t *testing.T) {
	// Property: a single-sender queue is exactly FIFO for any send/recv
	// interleaving pattern.
	f := func(ops []bool) bool {
		q := NewQueue()
		next, expect := 0, 0
		for _, isSend := range ops {
			if isSend {
				q.Send(Message{Value: next})
				next++
			} else if m, ok, _ := q.TryRecv(); ok {
				if m.Value.(int) != expect {
					return false
				}
				expect++
			}
		}
		for {
			m, ok, _ := q.TryRecv()
			if !ok {
				break
			}
			if m.Value.(int) != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRingMinimumCapacity pins NewRing's clamp: a capacity below 1 builds a
// one-slot ring, so a send still completes once the receiver takes it.
func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	if r.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", r.Cap())
	}
	done := make(chan struct{})
	go func() {
		r.Send(Message{Value: 1})
		close(done)
	}()
	m, err := r.Recv()
	if err != nil || m.Value.(int) != 1 {
		t.Fatalf("Recv = %v %v", m, err)
	}
	<-done
}
