package channel

import (
	"testing"
)

// Micro-benchmarks for the communication substrates: the cost difference
// between the persistent unbounded queue (Rumpsteak-analogue) and the
// per-interaction rendezvous (Sesh/MultiCrusty cost model) is the mechanism
// behind the Fig. 6 gaps.

func BenchmarkPerInteractionAllocation(b *testing.B) {
	// The Sesh cost model: a fresh channel per interaction.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRendezvous()
		go func() { r.Recv() }()
		r.Send(Message{Label: "x"})
	}
}

// substrate is the benchmark surface every substrate offers.
type substrate interface {
	Sender
	Receiver
	Close()
}

// substrates lists the head-to-head contenders. Rendezvous is excluded from
// same-goroutine SendRecv (a synchronous send would deadlock) and
// benchmarked only in the ping-pong shape.
func substrates(k int) map[string]func() substrate {
	return map[string]func() substrate{
		"queue":     func() substrate { return NewQueue() },
		"bounded":   func() substrate { return NewBounded(k) },
		"ring":      func() substrate { return NewRing(k) },
		"ringqueue": func() substrate { return NewRingQueue() },
	}
}

// BenchmarkSendRecv is the same-goroutine hot path: one send immediately
// consumed. It isolates per-operation substrate cost with no scheduling.
func BenchmarkSendRecv(b *testing.B) {
	for name, mk := range substrates(64) {
		b.Run(name, func(b *testing.B) {
			q := mk()
			m := Message{Label: "value", Value: 42}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.Send(m)
				if _, err := q.Recv(); err != nil {
					b.Fatal(err)
				}
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
	b.Run("rendezvous", func(b *testing.B) {
		pingPong(b, NewRendezvous(), NewRendezvous())
	})
}

// BenchmarkRingBatch measures the amortised batched path: 64-message runs
// published and drained through SendN/RecvN.
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.SendN(out); err != nil {
					b.Fatal(err)
				}
				got := 0
				for got < run {
					n, err := q.RecvN(in[got:])
					if err != nil {
						b.Fatal(err)
					}
					got += n
				}
			}
			b.ReportMetric(float64(b.N)*run/float64(b.Elapsed().Nanoseconds())*1e3, "msgs/us")
		})
	}
}
