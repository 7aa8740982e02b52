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
	sendRecvLoop(b, ea, eb)
}

// sendRecvLoop times a one-hop round, a to b, after one untimed round: B/op
// then counts neither the caller's setup nor the route's first segment,
// which would dominate it at smoke length (-benchtime 2x).
func sendRecvLoop(b *testing.B, ea, eb *Endpoint) {
	round := func() {
		if err := ea.Send("b", "ping", benchPayload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := eb.Receive("a"); err != nil {
			b.Fatal(err)
		}
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// benchPayload is the value the one-hop rows send. It is fixed and below
// 256, so boxing it into a Message never allocates: a loop counter would
// allocate 8 B once it passed 255, which a full-length run reaches and a
// two-iteration smoke run does not, so the two would time different paths.
const benchPayload = 7

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
			round := func() {
				if err := ea.Send("b", "ping", nil); err != nil {
					b.Fatal(err)
				}
				if _, _, err := eb.Receive("a"); err != nil {
					b.Fatal(err)
				}
			}
			round() // untimed, as in sendRecvLoop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
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
			// One untimed round trip first: the ring routes allocate their
			// first segment on first use, a one-time cost that would
			// dominate B/op at smoke length (-benchtime 2x).
			if err := ea.Send("b", "ping", nil); err != nil {
				b.Fatal(err)
			}
			if _, _, err := ea.Receive("b"); err != nil {
				b.Fatal(err)
			}
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
			// Two untimed batches first: the routes grow their buffers on
			// first use, and a run fills a ring segment exactly, so the
			// second batch allocates the next one; from the third on, the
			// drained segment is recycled. Timed, those one-time costs
			// would dominate B/op at smoke length (-benchtime 2x).
			for i := 0; i < 2; i++ {
				if err := ea.SendN("b", "v", values); err != nil {
					b.Fatal(err)
				}
				if err := eb.ReceiveN("a", "v", dst); err != nil {
					b.Fatal(err)
				}
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
	sendRecvLoop(b, ea, eb)
}

// BenchmarkSessionSendRecvDeadline is BenchmarkSendRecvMonitored with and
// without a far-future deadline armed on both endpoints. Every Send and
// Receive is a Try* probe, parked on the route's WaitSend/WaitRecv after a
// refusal with the endpoint's deadline as the bound, so armed and unarmed
// run the same code; here the probes never refuse and no wait runs. The
// two sub-runs are measured back to back so their ratio is robust to clock
// drift across a long bench sweep, and the row pins that arming a deadline
// costs nothing: the ratio stays within noise of 1, with 0 allocs/op on
// both.
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
			// One untimed round first, so B/op counts neither the setup
			// above nor the route's first segment, which would dominate it
			// at smoke length (-benchtime 2x).
			if err := ea.Send("b", "ping", 0); err != nil {
				b.Fatal(err)
			}
			if _, _, err := eb.Receive("a"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ea.Send("b", "ping", benchPayload); err != nil {
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
	round := func() {
		if err := toB.Send("ping", benchPayload); err != nil {
			b.Fatal(err)
		}
		if _, _, err := fromA.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	round() // untimed, as in sendRecvLoop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

func BenchmarkMonitorStepBranching(b *testing.B) {
	m := fsm.MustFromLocal("a", types.MustParse("mu t.b?{l0.t, l1.t, l2.t, l3.t, l4.t, l5.t, l6.t, l7.t}"))
	mon := NewMonitor(m)
	act := fsm.Action{Dir: fsm.Recv, Peer: "b", Label: "l7"}
	b.ReportAllocs()
	b.ResetTimer() // the machine and monitor built above are setup
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
