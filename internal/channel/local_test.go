package channel

import (
	"testing"
)

// TestLocalFIFOAcrossGrowth pins the single-owner queue's order while its
// buffer grows with the buffered run wrapped around the end of the slice:
// each round sends three and receives two, so the head keeps moving and
// every doubling copies a wrapped run. More than 64 messages end up in
// flight; then everything drains in order.
func TestLocalFIFOAcrossGrowth(t *testing.T) {
	q := NewLocal()
	sent, got := 0, 0
	recv := func() {
		t.Helper()
		m, ok, err := q.TryRecv()
		if !ok || err != nil || m.Value != got {
			t.Fatalf("TryRecv = (%v, %v, %v), want message %d", m, ok, err, got)
		}
		got++
	}
	for sent-got <= 100 {
		for i := 0; i < 3; i++ {
			if ok, err := q.TrySend(Message{Label: "v", Value: sent}); !ok || err != nil {
				t.Fatalf("TrySend %d = (%v, %v)", sent, ok, err)
			}
			sent++
		}
		recv()
		recv()
	}
	if n := q.Len(); n != sent-got {
		t.Fatalf("Len = %d, want %d", n, sent-got)
	}
	for got < sent {
		recv()
	}
	if _, ok, err := q.TryRecv(); ok || err != nil {
		t.Fatalf("TryRecv on the drained queue = (%v, %v), want empty and open", ok, err)
	}
}

// NewLocal returns an empty single-owner queue. No buffer is allocated
// until the first send.
func NewLocal() *Local { return &Local{} }

// Len returns the number of buffered messages. Owner only.
func (q *Local) Len() int { return int(q.tail - q.head) }
