package channel

import (
	"errors"
	"testing"
)

// This file pins Reset on the substrates the pooled scheduler recycles: a
// reset route behaves exactly like a fresh one — FIFO across segment
// boundaries (buffer growth, for the single-owner Local), a clean close
// state for the next cause — and recycling it allocates nothing.

// resettable is the surface the Reset tests drive.
type resettable interface {
	Substrate
	Resetter
	Len() int
}

func resetVariants() map[string]func() resettable {
	return map[string]func() resettable{
		"ring":      func() resettable { return NewRing(2 * ringSegLen) },
		"ringqueue": func() resettable { return NewRingQueue() },
		"local":     func() resettable { return NewLocal() },
	}
}

// sendRange sends values from, from+1, ..., from+n-1.
func sendRange(t *testing.T, q resettable, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := q.Send(Message{Label: "v", Value: i}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
}

// recvRange receives n messages and checks they carry from, ..., from+n-1.
func recvRange(t *testing.T, q resettable, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		m, err := q.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Value.(int) != i {
			t.Fatalf("got %v, want %d", m.Value, i)
		}
	}
}

// TestResetKeepsFIFOAcrossSegments runs more than a segment's worth of
// messages through a route, resets it — once drained, once with messages
// still buffered — and checks the next runs are delivered in order, across
// segment boundaries again, with nothing left over from before the Reset.
func TestResetKeepsFIFOAcrossSegments(t *testing.T) {
	for name, mk := range resetVariants() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			const run = ringSegLen + ringSegLen/2 + 3
			sendRange(t, q, 0, run)
			recvRange(t, q, 0, run)
			q.Reset()
			// Interleave so the consumer recycles segments mid-run.
			for i := 0; i < 2*run; i += 5 {
				sendRange(t, q, i, 5)
				recvRange(t, q, i, 5)
			}
			sendRange(t, q, 1000, run-7) // left buffered: Reset drains it
			q.Reset()
			if n := q.Len(); n != 0 {
				t.Fatalf("Len after Reset = %d, want 0", n)
			}
			if _, ok, err := q.TryRecv(); ok || err != nil {
				t.Fatalf("TryRecv after Reset: ok=%v err=%v, want empty and open", ok, err)
			}
			sendRange(t, q, 0, run)
			recvRange(t, q, 0, run)
		})
	}
}

// TestResetClearsCloseCause pins that a Reset route forgets the previous
// close entirely: after CloseWithError(a), Reset and CloseWithError(b), the
// route reports b — not a, which a stale cause would make win.
func TestResetClearsCloseCause(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for name, mk := range resetVariants() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			sendRange(t, q, 0, 3)
			q.CloseWithError(errA)
			q.Reset()
			sendRange(t, q, 0, 1) // reopened: sends succeed again
			recvRange(t, q, 0, 1)
			q.CloseWithError(errB)
			_, _, err := q.TryRecv()
			if !errors.Is(err, errB) || errors.Is(err, errA) {
				t.Fatalf("TryRecv after the second close: %v, want cause b", err)
			}
			if err := q.Send(Message{}); !errors.Is(err, errB) {
				t.Fatalf("Send after the second close: %v, want cause b", err)
			}
		})
	}
}

// TestResetCyclesAllocateNothing pins the pooled path's contract at the
// substrate: once warm, send/recv/Reset cycles — each crossing a segment
// boundary — allocate nothing.
func TestResetCyclesAllocateNothing(t *testing.T) {
	for name, mk := range resetVariants() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			const run = ringSegLen + 9
			cycle := func() {
				for i := 0; i < run; i++ {
					if err := q.Send(Message{Label: "v"}); err != nil {
						t.Fatal(err)
					}
					if _, err := q.Recv(); err != nil {
						t.Fatal(err)
					}
				}
				q.Reset()
			}
			cycle() // warm: the first segments are allocated here
			if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
				t.Fatalf("send/recv/Reset cycle allocates %.1f times, want 0", allocs)
			}
		})
	}
}
