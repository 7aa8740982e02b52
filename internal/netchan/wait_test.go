package netchan

import (
	"errors"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/wire"
)

// The deadline-wait contract (channel.Sender.WaitSend,
// channel.Receiver.WaitRecv) over a Pipe route: the waits park on the
// halves' rings, so the pumps' deliveries and freed slots release them, a
// goodbye frame releases them with the close cause, and an unready route
// times them out unchanged.

// parked runs wait on its own goroutine and checks it is still parked 20ms
// later: a wait on a route that is not ready must not return.
func parked(t *testing.T, wait func(time.Time) error) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- wait(time.Now().Add(time.Minute)) }()
	select {
	case err := <-done:
		t.Fatalf("wait returned %v on a route that is not ready", err)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

func TestPipeWaitRecvReleasedBySend(t *testing.T) {
	p := Pipe(testTable(t), Options{Buffer: 2})
	defer p.Abandon()
	done := parked(t, p.WaitRecv)
	if err := p.Send(channel.Message{Label: "val", Value: int32(5)}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitRecv = %v after a send", err)
	}
	if m, ok, err := p.TryRecv(); !ok || err != nil || m.Value != int32(5) {
		t.Fatalf("TryRecv after the wait = (%v, %v, %v)", m, ok, err)
	}
}

func TestPipeWaitSendReleasedByRecv(t *testing.T) {
	p := Pipe(testTable(t), Options{Buffer: 1})
	defer p.Abandon()
	// Fill the route end to end: the receiving ring, the reader's pending
	// frame, the pipe and the sending ring all hold traffic.
	sent := 0
	for {
		ok, err := p.TrySend(channel.Message{Label: "val", Value: int32(sent)})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sent++
			continue
		}
		if err := p.WaitSend(time.Now().Add(20 * time.Millisecond)); err == channel.ErrDeadline {
			break // the pumps have stopped draining: full
		} else if err != nil {
			t.Fatal(err)
		}
	}
	done := parked(t, p.WaitSend)
	if m, err := p.Recv(); err != nil || m.Value != int32(0) {
		t.Fatalf("Recv = (%v, %v)", m, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitSend = %v after a receive", err)
	}
	if ok, err := p.TrySend(channel.Message{Label: "val", Value: int32(sent)}); !ok || err != nil {
		t.Fatalf("TrySend after the wait = (%v, %v)", ok, err)
	}
}

// A goodbye frame carries the close to the receiving end: plain Close
// releases the waiter with ErrClosed, CloseWithError with its cause.
func TestPipeWaitReleasedByClose(t *testing.T) {
	if err := wire.RegisterCause("netchantest/fire", errFire); err != nil {
		t.Fatal(err)
	}
	t.Run("close", func(t *testing.T) {
		p := Pipe(testTable(t), Options{Buffer: 2})
		defer p.Abandon()
		done := parked(t, p.WaitRecv)
		p.Close()
		err := <-done
		var ce *channel.CloseError
		if !errors.Is(err, channel.ErrClosed) || errors.As(err, &ce) {
			t.Fatalf("WaitRecv after Close = %v, want a cause-less close", err)
		}
	})
	t.Run("withcause", func(t *testing.T) {
		p := Pipe(testTable(t), Options{Buffer: 2})
		defer p.Abandon()
		done := parked(t, p.WaitRecv)
		p.CloseWithError(errFire)
		if err := <-done; !errors.Is(err, channel.ErrClosed) || !errors.Is(err, errFire) {
			t.Fatalf("WaitRecv after CloseWithError = %v, want the cause", err)
		}
		if err := p.WaitSend(time.Now().Add(time.Minute)); !errors.Is(err, errFire) {
			t.Fatalf("WaitSend after CloseWithError = %v, want the cause", err)
		}
	})
}

func TestPipeWaitDeadline(t *testing.T) {
	p := Pipe(testTable(t), Options{Buffer: 2})
	defer p.Abandon()
	const d = 30 * time.Millisecond
	start := time.Now()
	if err := p.WaitRecv(start.Add(d)); err != channel.ErrDeadline {
		t.Fatalf("WaitRecv on an empty route = %v, want ErrDeadline", err)
	}
	if el := time.Since(start); el < d {
		t.Fatalf("timed out after %v, before the %v deadline", el, d)
	}
	if _, ok, err := p.TryRecv(); ok || err != nil {
		t.Fatalf("route changed by the timed-out wait: TryRecv = (%v, %v)", ok, err)
	}
	if err := p.Send(channel.Message{Label: "val", Value: int32(9)}); err != nil {
		t.Fatal(err)
	}
	if m, err := p.Recv(); err != nil || m.Value != int32(9) {
		t.Fatalf("route unusable after a timed-out wait: (%v, %v)", m, err)
	}
}
