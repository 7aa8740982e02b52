package channel

import (
	"testing"
)

// Micro-benchmarks for the communication substrates: the lock-free SPSC
// rings against the mutex MPMC queue and, on one goroutine, the
// single-owner Local. The synchronous cost model behind the
// Fig. 6 gaps (Sesh, MultiCrusty: a fresh channel per interaction) lives in
// internal/baseline on native Go channels.

// substrate is the benchmark surface every substrate offers.
type substrate interface {
	Sender
	Receiver
	Close()
}

// substrates lists the head-to-head contenders.
func substrates(k int) map[string]func() substrate {
	return map[string]func() substrate{
		"queue":     func() substrate { return NewQueue() },
		"ring":      func() substrate { return NewRing(k) },
		"ringqueue": func() substrate { return NewRingQueue() },
	}
}

// BenchmarkSendRecv is the same-goroutine hot path: one send immediately
// consumed. It isolates per-operation substrate cost with no scheduling.
// The single-owner Local runs here only: its one owner cannot ping-pong
// with a second goroutine.
func BenchmarkSendRecv(b *testing.B) {
	mks := substrates(64)
	mks["local"] = func() substrate { return NewLocal() }
	for name, mk := range mks {
		b.Run(name, func(b *testing.B) {
			q := mk()
			m := Message{Label: "value", Value: 42}
			round := func() {
				q.Send(m)
				if _, err := q.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			// One untimed round first: the queues allocate their buffer or
			// first segment on first use, a one-time cost that, with the
			// construction above, would dominate B/op at smoke length
			// (-benchtime 2x).
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// pingPong bounces one message between two substrate instances through an
// echo goroutine: the 2-role session shape, measuring a full round trip
// including cross-goroutine handoff.
func pingPong(b *testing.B, a, bq substrate) {
	b.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := a.Recv()
			if err != nil {
				return
			}
			bq.Send(m)
		}
	}()
	m := Message{Label: "ping"}
	// One untimed round trip first: a RingQueue allocates its first
	// segment on first use, a one-time cost that would dominate B/op at
	// smoke length (-benchtime 2x).
	a.Send(m)
	if _, err := bq.Recv(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(m)
		if _, err := bq.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	a.Close()
	<-done
}

// BenchmarkPingPong is the head-to-head across all substrates (the
// acceptance shape: the ring must beat the mutex queue by ≥ 2×, with zero
// steady-state allocation).
func BenchmarkPingPong(b *testing.B) {
	for name, mk := range substrates(64) {
		b.Run(name, func(b *testing.B) {
			pingPong(b, mk(), mk())
		})
	}
}

// BenchmarkRingBatch measures the amortised batched path: 64-message runs
// published and drained through TrySendN/TryRecvN. The run fits the ring,
// so neither probe ever comes back short.
func BenchmarkRingBatch(b *testing.B) {
	for _, name := range []string{"ring", "ringqueue"} {
		b.Run(name, func(b *testing.B) {
			var q interface {
				BatchSender
				BatchReceiver
			}
			if name == "ring" {
				q = NewRing(64)
			} else {
				q = NewRingQueue()
			}
			const run = 64
			out := make([]Message, run)
			in := make([]Message, run)
			for i := range out {
				out[i] = Message{Label: "value", Value: 42}
			}
			round := func() {
				if n, err := q.TrySendN(out); n != run || err != nil {
					b.Fatalf("TrySendN = (%d, %v)", n, err)
				}
				for got := 0; got < run; {
					n, err := q.TryRecvN(in[got:])
					if n == 0 || err != nil {
						b.Fatalf("TryRecvN = (%d, %v) with %d buffered", n, err, run-got)
					}
					got += n
				}
			}
			// Two untimed rounds first. A run fills a RingQueue segment
			// exactly, so the first round allocates one segment and the
			// second the next; from the third on, the drained segment comes
			// back through the free cache. Timed, those one-time costs
			// would dominate B/op at smoke length (-benchtime 2x).
			round()
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.ReportMetric(float64(b.N)*run/float64(b.Elapsed().Nanoseconds())*1e3, "msgs/us")
		})
	}
}
