package netchan

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/types"
	"repro/internal/wire"
)

// testTable is a two-label protocol: "val" carries i32, "tag" carries str,
// "sig" is a signal, "col" a nested vector.
func testTable(t testing.TB) *wire.Table {
	t.Helper()
	var local types.Local = types.End{}
	for _, e := range []struct {
		l types.Label
		s types.Sort
	}{{"val", types.I32}, {"tag", types.Str}, {"sig", types.Unit}, {"col", types.VecOf(types.VecOf(types.F64))}} {
		local = types.Send{Peer: "q", Branches: []types.Branch{{Label: e.l, Sort: e.s, Cont: local}}}
	}
	tab, err := wire.TableFromLocals("netchantest", map[types.Role]types.Local{"p": local})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPipeRoundTrip(t *testing.T) {
	tab := testTable(t)
	p := Pipe(tab, Options{Buffer: 8})
	defer p.Close()

	want := []channel.Message{
		{Label: "val", Value: int32(-42)},
		{Label: "tag", Value: "hello"},
		{Label: "sig", Value: nil},
		{Label: "col", Value: [][]float64{{1.5, 2.5}, {}}},
	}
	for _, m := range want {
		if err := p.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range want {
		got, err := p.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Label != m.Label || fmt.Sprint(got.Value) != fmt.Sprint(m.Value) {
			t.Fatalf("got %v, want %v", got, m)
		}
	}
}

// The Try* non-blocking contract: (false, nil) on a full route, delivery
// resumes after the consumer drains, (false, ErrClosed) once closed.
func TestPipeTryWouldBlock(t *testing.T) {
	tab := testTable(t)
	p := Pipe(tab, Options{Buffer: 2})
	defer p.Close()

	m := channel.Message{Label: "val", Value: int32(1)}
	sent := 0
	// Fill every stage: send ring, pipe hand-off, recv ring.
	for i := 0; i < 100; i++ {
		ok, err := p.TrySend(m)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		sent++
	}
	if sent == 0 || sent == 100 {
		t.Fatalf("route never filled (sent=%d)", sent)
	}
	// Now it reports would-block, not an error.
	if ok, err := p.TrySend(m); ok || err != nil {
		t.Fatalf("TrySend on full route = (%v, %v), want (false, nil)", ok, err)
	}
	// Drain everything; every sent message arrives in order.
	got := 0
	waitFor(t, "all messages", func() bool {
		_, ok, err := p.TryRecv()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got++
		}
		return got == sent
	})
	// Space freed: the sender can proceed again.
	waitFor(t, "would-block clears", func() bool {
		ok, err := p.TrySend(m)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	})
}

// The acceptance-criterion contract: CloseWithError's cause crosses the
// wire and surfaces at the peer as a *channel.CloseError unwrapping to the
// original cause — after buffered messages drain.
// Package-level: wire cause names bind process-wide, so -count>1 reruns
// must re-register the same sentinels (idempotent) rather than fresh ones.
var (
	errFire     = errors.New("netchantest: sensor on fire")
	errTCPAbort = errors.New("netchantest: tcp abort")
)

func TestCloseCauseCrossesWire(t *testing.T) {
	cause := errFire
	if err := wire.RegisterCause("netchantest/fire", cause); err != nil {
		t.Fatal(err)
	}
	tab := testTable(t)
	p := Pipe(tab, Options{Buffer: 4})

	if err := p.Send(channel.Message{Label: "val", Value: int32(7)}); err != nil {
		t.Fatal(err)
	}
	p.CloseWithError(cause)

	// The buffered message still drains first (close-with-drain), then the
	// cause appears.
	m, err := p.Recv()
	if err != nil {
		t.Fatalf("drain before cause: %v", err)
	}
	if m.Value != int32(7) {
		t.Fatalf("drained %v", m.Value)
	}
	_, err = p.Recv()
	var ce *channel.CloseError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *channel.CloseError", err)
	}
	if !errors.Is(err, channel.ErrClosed) {
		t.Fatal("CloseError must still match ErrClosed")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("cause lost across the wire: %v", err)
	}
	// Sends after close fail closed.
	if ok, err := p.TrySend(channel.Message{Label: "sig"}); ok || !errors.Is(err, channel.ErrClosed) {
		t.Fatalf("TrySend after close = (%v, %v)", ok, err)
	}
}

func TestPlainCloseDrains(t *testing.T) {
	tab := testTable(t)
	p := Pipe(tab, Options{Buffer: 4})
	for i := 0; i < 3; i++ {
		if err := p.Send(channel.Message{Label: "val", Value: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	for i := 0; i < 3; i++ {
		m, err := p.Recv()
		if err != nil || m.Value != int32(i) {
			t.Fatalf("drain %d: %v %v", i, m, err)
		}
	}
	if _, err := p.Recv(); !errors.Is(err, channel.ErrClosed) {
		t.Fatalf("after drain: %v", err)
	}
	var ce *channel.CloseError
	if _, err := p.Recv(); errors.As(err, &ce) {
		t.Fatalf("plain close must not carry a cause, got %v", err)
	}
}

// A TrySendN batch crosses as a unit and TryRecvN consumes runs.
func TestBatchAcrossWire(t *testing.T) {
	tab := testTable(t)
	p := Pipe(tab, Options{Buffer: 64})
	defer p.Close()
	ms := make([]channel.Message, 64)
	for i := range ms {
		ms[i] = channel.Message{Label: "val", Value: int32(i)}
	}
	if n, err := p.TrySendN(ms); n != len(ms) || err != nil {
		t.Fatalf("TrySendN on an empty route = %d, %v", n, err)
	}
	got := 0
	dst := make([]channel.Message, 16)
	for got < len(ms) {
		n, err := p.TryRecvN(dst)
		if err == nil && n == 0 {
			err = p.WaitRecv(time.Time{})
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if dst[i].Value != int32(got+i) {
				t.Fatalf("out of order at %d: %v", got+i, dst[i].Value)
			}
		}
		got += n
	}
}

// The notify hook fires on deliveries and closes — the scheduler's wakeup
// signal.
func TestNotifyFires(t *testing.T) {
	tab := testTable(t)
	var wakes atomic.Int64
	p := Pipe(tab, Options{Buffer: 4, Notify: func() { wakes.Add(1) }})
	if err := p.Send(channel.Message{Label: "sig"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery notify", func() bool { return wakes.Load() > 0 })
	before := wakes.Load()
	p.Close()
	waitFor(t, "close notify", func() bool { return wakes.Load() > before })
}

// fabricPair builds two connected fabrics for roles p and q and returns
// p's send route (p->q) and q's receive route (p->q).
func fabricPair(t *testing.T, network string, opts Options) (send, recv channel.Substrate, fp, fq *Fabric) {
	t.Helper()
	tab := testTable(t)
	roles := []types.Role{"p", "q"}
	fp = NewFabric("p", tab, opts)
	fq = NewFabric("q", tab, opts)
	addrOf := func(f *Fabric, name string) string {
		addr := ":0"
		if network == "unix" {
			addr = filepath.Join(t.TempDir(), name+".sock")
		}
		got, err := f.Listen(network, addr)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	ap, aq := addrOf(fp, "p"), addrOf(fq, "q")
	fp.SetPeer("q", aq)
	fq.SetPeer("p", ap)
	mkP, mkQ := fp.RouteMaker(roles), fq.RouteMaker(roles)
	// Row-major ordinals over (p, q): 0 = p->q, 1 = q->p.
	sPQ, _ := mkP(), mkP()
	rPQ, _ := mkQ(), mkQ()
	t.Cleanup(func() { fp.Close(); fq.Close() })
	return sPQ, rPQ, fp, fq
}

func testFabricRoundTrip(t *testing.T, network string, opts Options) {
	send, recv, _, _ := fabricPair(t, network, opts)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			send.Send(channel.Message{Label: "val", Value: int32(i)})
		}
		send.Send(channel.Message{Label: "tag", Value: "done"})
	}()
	for i := 0; i < n; i++ {
		m, err := recv.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Label != "val" || m.Value != int32(i) {
			t.Fatalf("recv %d: %v", i, m)
		}
	}
	m, err := recv.Recv()
	if err != nil || m.Value != "done" {
		t.Fatalf("tail: %v %v", m, err)
	}
}

func TestFabricTCP(t *testing.T) {
	testFabricRoundTrip(t, "tcp", Options{Buffer: 16, DialTimeout: 5 * time.Second})
}

func TestFabricUnix(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix sockets")
	}
	testFabricRoundTrip(t, "unix", Options{Buffer: 16, DialTimeout: 5 * time.Second})
}

// The receive pump under backpressure, over TCP: a two-slot ring fills,
// the reader blocks in the ring's Send with the rest of the stream still
// on the socket, and each slot a TryRecv frees must wake it to deliver the
// next message. The consumer spins on TryRecv rather than parking in Recv,
// so only the reader's own wake moves the stream on: a lost one stalls it.
func TestFabricTCPFullRing(t *testing.T) {
	opts := Options{Buffer: 2, DialTimeout: 5 * time.Second}
	send, recv, _, _ := fabricPair(t, "tcp", opts)
	const n = 300
	go func() {
		for i := 0; i < n; i++ {
			send.Send(channel.Message{Label: "val", Value: int32(i)})
		}
	}()
	ring := recv.(*recvHalf).ring
	waitFor(t, "receive ring full", func() bool { return ring.Len() == ring.Cap() })
	for i := 0; i < n; i++ {
		var m channel.Message
		waitFor(t, fmt.Sprintf("message %d", i), func() bool {
			got, ok, err := recv.TryRecv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			m = got
			return ok
		})
		if m.Value != int32(i) {
			t.Fatalf("recv %d: %v", i, m)
		}
	}
}

// A cause crosses real sockets.
func TestFabricCloseCauseTCP(t *testing.T) {
	cause := errTCPAbort
	if err := wire.RegisterCause("netchantest/tcp-abort", cause); err != nil {
		t.Fatal(err)
	}
	opts := Options{Buffer: 4, DialTimeout: 5 * time.Second}
	send, recv, _, _ := fabricPair(t, "tcp", opts)
	if err := send.Send(channel.Message{Label: "val", Value: int32(1)}); err != nil {
		t.Fatal(err)
	}
	send.CloseWithError(cause)
	if m, err := recv.Recv(); err != nil || m.Value != int32(1) {
		t.Fatalf("drain: %v %v", m, err)
	}
	_, err := recv.Recv()
	if !errors.Is(err, cause) || !errors.Is(err, channel.ErrClosed) {
		t.Fatalf("cause across sockets: %v", err)
	}
}

// A pure sender may buffer its whole role and Close before the peer's
// listener even exists (the Elevator panel does exactly this). The
// graceful close must keep the dial alive and flush the ring ahead of the
// goodbye — aborting the dial at Close would silently drop every message.
func TestCloseFlushesThroughPendingDial(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix sockets")
	}
	tab := testTable(t)
	roles := []types.Role{"p", "q"}
	dir := t.TempDir()
	addrP, addrQ := filepath.Join(dir, "p.sock"), filepath.Join(dir, "q.sock")
	opts := Options{Buffer: 16, DialTimeout: 5 * time.Second}

	fp := NewFabric("p", tab, opts)
	if _, err := fp.Listen("unix", addrP); err != nil {
		t.Fatal(err)
	}
	fp.SetPeer("q", addrQ)
	mkP := fp.RouteMaker(roles)
	send, _ := mkP(), mkP()
	const n = 10
	for i := 0; i < n; i++ {
		if err := send.Send(channel.Message{Label: "val", Value: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		fp.Close() // blocks flushing: q's listener is not up yet
		close(closed)
	}()
	time.Sleep(50 * time.Millisecond)

	fq := NewFabric("q", tab, opts)
	defer fq.Close()
	if _, err := fq.Listen("unix", addrQ); err != nil {
		t.Fatal(err)
	}
	fq.SetPeer("p", addrP)
	mkQ := fq.RouteMaker(roles)
	recv, _ := mkQ(), mkQ()
	for i := 0; i < n; i++ {
		m, err := recv.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Value != int32(i) {
			t.Fatalf("recv %d: %v", i, m)
		}
	}
	if _, err := recv.Recv(); !errors.Is(err, channel.ErrClosed) {
		t.Fatalf("after flush: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the flush")
	}
}

// An abrupt connection drop (no goodbye) surfaces as ErrDisconnected.
func TestAbruptDisconnect(t *testing.T) {
	send, recv, fp, _ := fabricPair(t, "tcp", Options{Buffer: 4, DialTimeout: 5 * time.Second})
	if err := send.Send(channel.Message{Label: "sig"}); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Recv(); err != nil {
		t.Fatal(err)
	}
	// Cut p's side of the wire without a goodbye.
	sh := send.(*sendHalf)
	waitFor(t, "conn attached", func() bool {
		select {
		case <-sh.ready:
			return true
		default:
			return false
		}
	})
	sh.conn.Close()
	_, err := recv.Recv()
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
	_ = fp
}

// Wrong-side use of a half is a loud programming error, not silent
// corruption.
func TestWrongSidePanics(t *testing.T) {
	tab := testTable(t)
	p := Pipe(tab, Options{})
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Recv on a send half must panic")
		}
	}()
	p.send.Recv()
}
