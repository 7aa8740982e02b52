package netchan

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
)

// The network-vs-ring substrate benches behind `make bench SUITE=net`: the
// same send+recv, ping-pong and batched-64 shapes as the channel benches, timed
// over same-host Unix sockets and loopback TCP against the in-memory
// RingQueue the session layer wires by default. A network iteration pays
// the whole pipeline — codec encode, framed write, kernel, framed read,
// codec decode, pump hand-off — so the columns in BENCH_net.json are the
// substrate cost of leaving the process, not a socket microbenchmark.

var benchMsg = channel.Message{Label: "val", Value: int32(42)}

// benchFabricRoutes builds two connected fabrics for roles p and q and
// returns both directed routes, each as its two process-local halves:
// spq/rpq are the sending and receiving ends of p→q, sqp/rqp of q→p.
func benchFabricRoutes(b *testing.B, network string) (spq, rpq, sqp, rqp channel.Substrate) {
	b.Helper()
	_, _, spq, rpq, sqp, rqp = benchFabrics(b, network)
	return spq, rpq, sqp, rqp
}

// benchFabrics is benchFabricRoutes that also returns the two fabrics, for
// benchmarks that install a notify hook.
func benchFabrics(b *testing.B, network string) (fp, fq *Fabric, spq, rpq, sqp, rqp channel.Substrate) {
	b.Helper()
	tab := testTable(b)
	roles := []types.Role{"p", "q"}
	fp = NewFabric("p", tab, Options{})
	fq = NewFabric("q", tab, Options{})
	addrOf := func(f *Fabric, name string) string {
		addr := ":0"
		if network == "unix" {
			addr = filepath.Join(b.TempDir(), name+".sock")
		}
		got, err := f.Listen(network, addr)
		if err != nil {
			b.Fatal(err)
		}
		return got
	}
	ap, aq := addrOf(fp, "p"), addrOf(fq, "q")
	fp.SetPeer("q", aq)
	fq.SetPeer("p", ap)
	mkP, mkQ := fp.RouteMaker(roles), fq.RouteMaker(roles)
	// Row-major ordinals over (p, q): 0 = p->q, 1 = q->p.
	spq, rqp = mkP(), mkP()
	rpq, sqp = mkQ(), mkQ()
	b.Cleanup(func() {
		fp.Close()
		fq.Close()
	})
	// Warm both directed routes: the first send pays the lazy dial, the
	// hello handshake and first-use buffer growth. Those belong to setup,
	// not to the steady-state per-message cost the columns report — and at
	// smoke iteration counts they would otherwise dominate the gated
	// allocs/op.
	for _, pair := range []struct{ s, r channel.Substrate }{{spq, rpq}, {sqp, rqp}} {
		if err := pair.s.Send(benchMsg); err != nil {
			b.Fatal(err)
		}
		if _, err := pair.r.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	return fp, fq, spq, rpq, sqp, rqp
}

// BenchmarkNetSendRecv is one message end to end: a blocking send, then a
// blocking receive that waits for it to cross the substrate.
func BenchmarkNetSendRecv(b *testing.B) {
	b.Run("ring", func(b *testing.B) {
		q := channel.NewRingQueue()
		b.ReportAllocs()
		// One untimed round: the first send allocates the ring's segment.
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if err := q.Send(benchMsg); err != nil {
				b.Fatal(err)
			}
			if _, err := q.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, network := range []string{"unix", "tcp"} {
		b.Run(network, func(b *testing.B) {
			spq, rpq, _, _ := benchFabricRoutes(b, network)
			b.ReportAllocs()
			// One untimed iteration: after the setup's single crossing of
			// each route, the next send and receive still allocate once
			// more than the steady state, which at smoke iteration counts
			// would show in allocs/op.
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				if err := spq.Send(benchMsg); err != nil {
					b.Fatal(err)
				}
				if _, err := rpq.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetPingPong is a full round trip: p→q, then q→p — the unit the
// session layer's request/response protocols pay per exchange.
func BenchmarkNetPingPong(b *testing.B) {
	b.Run("ring", func(b *testing.B) {
		pq, qp := channel.NewRingQueue(), channel.NewRingQueue()
		b.ReportAllocs()
		// One untimed round: the first sends allocate the rings' segments.
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			pq.Send(benchMsg)
			if _, err := pq.Recv(); err != nil {
				b.Fatal(err)
			}
			qp.Send(benchMsg)
			if _, err := qp.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, network := range []string{"unix", "tcp"} {
		b.Run(network, func(b *testing.B) {
			spq, rpq, sqp, rqp := benchFabricRoutes(b, network)
			b.ReportAllocs()
			// One untimed round trip, as in BenchmarkNetSendRecv.
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				if err := spq.Send(benchMsg); err != nil {
					b.Fatal(err)
				}
				if _, err := rpq.Recv(); err != nil {
					b.Fatal(err)
				}
				if err := sqp.Send(benchMsg); err != nil {
					b.Fatal(err)
				}
				if _, err := rqp.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetBatch64 moves 64 messages per iteration through the batch
// probes TrySendN/TryRecvN, waiting with WaitSend/WaitRecv when a probe
// moves nothing — over the wire the batch coalesces into large writes,
// which is where the AMR-style reordering headroom comes from.
func BenchmarkNetBatch64(b *testing.B) {
	batch := make([]channel.Message, 64)
	for i := range batch {
		batch[i] = benchMsg
	}
	dst := make([]channel.Message, 64)
	drive := func(b *testing.B, s, r channel.Substrate) {
		b.Helper()
		bs, br := s.(channel.BatchSender), r.(channel.BatchReceiver)
		b.ReportAllocs()
		// Two untimed batches: 64 messages fill a RingQueue segment
		// exactly, so the first batch allocates one segment and the
		// second the next; over a socket they also grow the write and
		// read buffers.
		for i := -2; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			for sent := 0; sent < len(batch); {
				n, err := bs.TrySendN(batch[sent:])
				if err == nil && n == 0 {
					err = s.WaitSend(time.Time{})
				}
				if err != nil {
					b.Fatal(err)
				}
				sent += n
			}
			for got := 0; got < len(dst); {
				n, err := br.TryRecvN(dst[got:])
				if err == nil && n == 0 {
					err = r.WaitRecv(time.Time{})
				}
				if err != nil {
					b.Fatal(err)
				}
				got += n
			}
		}
	}
	b.Run("ring", func(b *testing.B) {
		q := channel.NewRingQueue()
		drive(b, q, q)
	})
	for _, network := range []string{"unix", "tcp"} {
		b.Run(network, func(b *testing.B) {
			spq, rpq, _, _ := benchFabricRoutes(b, network)
			drive(b, spq, rpq)
		})
	}
}

// BenchmarkNetSchedPingPong is a round trip on the stepped socket path that
// perfbench's pingpong-unix runs: two sched.GoExternal sessions, one per
// role, each woken by its fabric's notify hook, exchange b.N round trips
// through TrySend/TryRecv. Unlike the blocking columns above, this one pays
// the direct write, the inline wake and the scheduler visit, so its gated
// allocs/op catch a regression there. A warm-up pair runs first, and the
// measured pair is enqueued held, so session setup stays out of the
// measurement.
func BenchmarkNetSchedPingPong(b *testing.B) {
	b.Run("unix", benchSchedPingPong)
}

func benchSchedPingPong(b *testing.B) {
	fp, fq, spq, rpq, sqp, rqp := benchFabrics(b, "unix")
	const workers = 2
	s := sched.New(sched.Options{Workers: workers})
	defer s.Close()
	pair := func(n int, hold *atomic.Bool) (wp *sched.Waker, done chan error) {
		done = make(chan error, 2)
		onDone := func(err error) { done <- err }
		deadline := time.Now().Add(5 * time.Minute)
		wq, err := s.GoExternal(deadline, onDone, &benchPonger{out: sqp, in: rpq, n: n})
		if err != nil {
			b.Fatal(err)
		}
		fq.SetNotify(wq.Wake)
		wq.Wake()
		if wp, err = s.GoExternal(deadline, onDone, &benchPinger{out: spq, in: rqp, n: n, hold: hold}); err != nil {
			b.Fatal(err)
		}
		fp.SetNotify(wp.Wake)
		return wp, done
	}
	wait := func(done chan error) {
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm a pair on every worker, so the measured pair does not start the
	// first sync.Cond wait of a worker. GoExternal places jobs round-robin,
	// so a no-op job between warm-up pairs moves each role of the next pair
	// to the other worker.
	var hold atomic.Bool
	for range workers {
		wp, done := pair(64, &hold)
		wp.Wake()
		wait(done)
		noop, err := s.GoExternal(time.Now().Add(time.Minute), func(err error) { done <- err }, &benchPinger{hold: &hold})
		if err != nil {
			b.Fatal(err)
		}
		noop.Wake()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	hold.Store(true)
	wp, done := pair(b.N, &hold)
	b.ReportAllocs()
	b.ResetTimer()
	hold.Store(false)
	wp.Wake()
	wait(done)
}

// benchPinger sends benchMsg and takes the answer, n times; while hold is
// set it would-blocks without starting.
type benchPinger struct {
	out, in channel.Substrate
	n, i    int
	sent    bool
	hold    *atomic.Bool
}

func (p *benchPinger) Step() (bool, error) {
	if p.hold.Load() {
		return false, session.ErrWouldBlock
	}
	if p.i == p.n {
		return true, nil
	}
	if !p.sent {
		ok, err := p.out.TrySend(benchMsg)
		if err != nil {
			return true, err
		}
		if !ok {
			return false, session.ErrWouldBlock
		}
		p.sent = true
		return false, nil
	}
	_, ok, err := p.in.TryRecv()
	if err != nil {
		return true, err
	}
	if !ok {
		return false, session.ErrWouldBlock
	}
	p.i++
	p.sent = false
	return false, nil
}

// benchPonger answers each message it takes with benchMsg, n times.
type benchPonger struct {
	out, in channel.Substrate
	n, i    int
	got     bool
}

func (q *benchPonger) Step() (bool, error) {
	if q.i == q.n {
		return true, nil
	}
	if !q.got {
		_, ok, err := q.in.TryRecv()
		if err != nil {
			return true, err
		}
		if !ok {
			return false, session.ErrWouldBlock
		}
		q.got = true
		return false, nil
	}
	ok, err := q.out.TrySend(benchMsg)
	if err != nil {
		return true, err
	}
	if !ok {
		return false, session.ErrWouldBlock
	}
	q.got = false
	q.i++
	return false, nil
}
