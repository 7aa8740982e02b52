package session

import (
	"testing"
	"time"

	"repro/internal/fsm"
	"repro/internal/types"
)

// BenchmarkMonitorOverhead measures the cost the runtime monitor adds to
// every operation — the price Go pays for moving conformance checking from
// Rust's compiler to run time (see DESIGN.md). Benchmarked as a one-hop
// round trip with and without a monitor attached.

func BenchmarkSendRecvUnmonitored(b *testing.B) {
	net := NewNetwork("a", "b")
	ea, eb := net.Endpoint("a"), net.Endpoint("b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ea.Send("b", "ping", i); err != nil {
			b.Fatal(err)
		}
		if _, _, err := eb.Receive("a"); err != nil {
			b.Fatal(err)
		}
	}
}

// networks lists the substrate choices for head-to-head endpoint
// benchmarks: the lock-free ring default against the mutex-queue baseline.
var networks = map[string]func(roles ...types.Role) *Network{
	"ring":  NewNetwork,
	"queue": NewQueueNetwork,
}

// BenchmarkNetworkSendRecv is the endpoint hot path (dense route table +
// substrate) with no cross-goroutine scheduling, per substrate.
func BenchmarkNetworkSendRecv(b *testing.B) {
	for name, mk := range networks {
		b.Run(name, func(b *testing.B) {
			net := mk("a", "b")
			ea, eb := net.Endpoint("a"), net.Endpoint("b")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ea.Send("b", "ping", nil); err != nil {
					b.Fatal(err)
				}
				if _, _, err := eb.Receive("a"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetworkPingPong is the 2-role ping-pong workload of the paper's
// microbenchmarks: a full round trip between two processes, per substrate —
// the head-to-head behind the Ring-vs-Queue acceptance numbers.
func BenchmarkNetworkPingPong(b *testing.B) {
	for name, mk := range networks {
		b.Run(name, func(b *testing.B) {
			net := mk("a", "b")
			ea, eb := net.Endpoint("a"), net.Endpoint("b")
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					if _, _, err := eb.Receive("a"); err != nil {
						return
					}
					if err := eb.Send("a", "pong", nil); err != nil {
						return
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ea.Send("b", "ping", nil); err != nil {
					b.Fatal(err)
				}
				if _, _, err := ea.Receive("b"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			net.closeAll()
			<-done
		})
	}
}

// BenchmarkNetworkSendRecvN measures the batched endpoint operations over a
// 64-message same-label run (the shape the paper's message-reordering
// optimisation produces), per substrate.
func BenchmarkNetworkSendRecvN(b *testing.B) {
	for name, mk := range networks {
		b.Run(name, func(b *testing.B) {
			net := mk("a", "b")
			ea, eb := net.Endpoint("a"), net.Endpoint("b")
			const run = 64
			values := make([]any, run)
			dst := make([]any, run)
			// One untimed batch first: the routes grow their buffers on
			// first use, a one-time cost that would dominate B/op at smoke
			// length (-benchtime 2x).
			if err := ea.SendN("b", "v", values); err != nil {
				b.Fatal(err)
			}
			if err := eb.ReceiveN("a", "v", dst); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ea.SendN("b", "v", values); err != nil {
					b.Fatal(err)
				}
				if err := eb.ReceiveN("a", "v", dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*run/float64(b.Elapsed().Nanoseconds())*1e3, "msgs/us")
		})
	}
}

func BenchmarkSendRecvMonitored(b *testing.B) {
	net := NewNetwork("a", "b")
	ma := fsm.MustFromLocal("a", types.MustParse("mu t.b!ping.t"))
	mb := fsm.MustFromLocal("b", types.MustParse("mu t.a?ping.t"))
	ea := &Endpoint{role: "a", net: net, mon: NewMonitor(ma)}
	eb := &Endpoint{role: "b", net: net, mon: NewMonitor(mb)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ea.Send("b", "ping", i); err != nil {
			b.Fatal(err)
		}
		if _, _, err := eb.Receive("a"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSendRecvDeadline is BenchmarkSendRecvMonitored under the
// failure-semantics machinery: the armed sub-run puts a far-future deadline
// on both endpoints, so every Send/Receive takes the deadline path (a Try*
// probe, parked on the route's WaitSend/WaitRecv after a refusal) instead
// of the blocking fast path — but the deadline never fires and the probes
// never refuse, so no wait runs. The unarmed sub-run is the identical
// workload on the blocking path, measured back to back so the
// armed/unarmed ratio is robust to clock drift across a long bench sweep.
// That ratio is the whole price of arming a deadline; the budget is ≤10%.
func BenchmarkSessionSendRecvDeadline(b *testing.B) {
	for _, armed := range []bool{false, true} {
		name := "unarmed"
		if armed {
			name = "armed"
		}
		b.Run(name, func(b *testing.B) {
			net := NewNetwork("a", "b")
			ma := fsm.MustFromLocal("a", types.MustParse("mu t.b!ping.t"))
			mb := fsm.MustFromLocal("b", types.MustParse("mu t.a?ping.t"))
			ea := &Endpoint{role: "a", net: net, mon: NewMonitor(ma)}
			eb := &Endpoint{role: "b", net: net, mon: NewMonitor(mb)}
			if armed {
				far := time.Now().Add(24 * time.Hour)
				ea.SetDeadline(far)
				eb.SetDeadline(far)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ea.Send("b", "ping", i); err != nil {
					b.Fatal(err)
				}
				if _, _, err := eb.Receive("a"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSendRecvUnchecked is the hot path underneath the generated
// state-pattern APIs (internal/codegen): route-bound monitor-free faces,
// resolved once, one substrate operation per action. The delta against
// BenchmarkSendRecvMonitored is what moving conformance from the runtime
// monitor into generated types buys per message; the delta against
// BenchmarkSendRecvUnmonitored is the cost of the per-send route lookup the
// bound faces avoid.
func BenchmarkSendRecvUnchecked(b *testing.B) {
	net := NewNetwork("a", "b")
	ua := UncheckedForCodegen(net.Endpoint("a"))
	ub := UncheckedForCodegen(net.Endpoint("b"))
	toB, err := ua.To("b")
	if err != nil {
		b.Fatal(err)
	}
	fromA, err := ub.From("a")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := toB.Send("ping", i); err != nil {
			b.Fatal(err)
		}
		if _, _, err := fromA.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonitorStepBranching(b *testing.B) {
	m := fsm.MustFromLocal("a", types.MustParse("mu t.b?{l0.t, l1.t, l2.t, l3.t, l4.t, l5.t, l6.t, l7.t}"))
	mon := NewMonitor(m)
	act := fsm.Action{Dir: fsm.Recv, Peer: "b", Label: "l7"}
	for i := 0; i < b.N; i++ {
		if err := mon.step(act); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepperStep is the scheduler's per-action cost in isolation: a
// source and sink stepper pair exchanging Streaming values over the default
// ring network, stepped from one goroutine with no would-blocks. One op is
// one value streamed — four Steps (t!ready, s?ready, s!value, t?value) over
// two messages — each taking its transition, route and sort check from the
// verified machine the stepper walks as its endpoint's monitor. Set against
// BenchmarkSendRecvMonitored (the monitored ops, one message per op) and
// BenchmarkSendRecvUnchecked (the generated API's monitor-free path).
func BenchmarkStepperStep(b *testing.B) {
	sess := streamingSession(b)
	steppers := map[types.Role]*Stepper{}
	for r, sg := range map[types.Role]Strategy{"s": &streamValues{v: int32(7), left: -1}, "t": FirstBranch{}} {
		ep, err := sess.Endpoint(r)
		if err != nil {
			b.Fatal(err)
		}
		if steppers[r], err = NewStepper(ep, sess.FSM(r), sg, 1<<62); err != nil {
			b.Fatal(err)
		}
	}
	order := [4]*Stepper{steppers["t"], steppers["s"], steppers["s"], steppers["t"]}
	round := func() {
		for _, st := range order {
			if done, err := st.Step(); done || err != nil {
				b.Fatalf("role %s: Step = (%v, %v)", st.Role(), done, err)
			}
		}
	}
	round() // the routes allocate their first segments here, untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
