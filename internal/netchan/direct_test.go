package netchan

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
)

// A stepped sender writes its frames to the socket itself while nothing is
// queued ahead of them. Against a peer that stops reading, the socket
// fills: a direct write then takes part of a frame or none of it, the rest
// goes to the writer goroutine, and later frames queue in the ring until
// TrySend refuses. No TrySend may block on the full socket. Once the peer
// reads again, every frame arrives whole and in order, and the goodbye of a
// Close comes after the last of them.
func TestDirectWriteFullSocket(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix sockets")
	}
	const buffer = 4
	send, recv, _, _ := fabricPair(t, "unix", Options{Buffer: buffer, DialTimeout: 5 * time.Second})
	// Frames of mixed sizes, some larger than the socket takes in one
	// write, so the socket fills both between frames and partway through one.
	sizes := []int{7001, 150001, 40003}
	payload := func(i int) string { return fmt.Sprintf("%06d", i) + strings.Repeat("x", sizes[i%len(sizes)]) }
	// The first frame waits for the dial; once it has arrived the route is
	// attached and the direct path is open.
	if err := send.Send(channel.Message{Label: "tag", Value: payload(0)}); err != nil {
		t.Fatal(err)
	}
	if m, err := recv.Recv(); err != nil || m.Value != payload(0) {
		t.Fatalf("first frame: (%v, %v)", m.Label, err)
	}
	sh := send.(*sendHalf)
	sh.wmu.Lock()
	direct := sh.raw != nil
	sh.wmu.Unlock()
	if !direct {
		t.Fatal("an attached unix route has no direct write")
	}

	// The peer stops reading: its pump fills its ring and stops, and the
	// socket fills behind it. Keep sending until TrySend keeps refusing.
	sent := 1
	stalled := make(chan error, 1)
	go func() {
		for refusals := 0; refusals < 20; {
			ok, err := send.TrySend(channel.Message{Label: "tag", Value: payload(sent)})
			if err != nil {
				stalled <- err
				return
			}
			if ok {
				sent, refusals = sent+1, 0
				continue
			}
			refusals++
			time.Sleep(2 * time.Millisecond)
		}
		stalled <- nil
	}()
	select {
	case err := <-stalled:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("TrySend blocked on a full socket")
	}
	if queued := sh.ring.Len(); queued != buffer {
		t.Fatalf("refused with %d frames queued, want a full ring of %d", queued, buffer)
	}

	send.Close()
	for i := 1; i < sent; i++ {
		m, err := recv.Recv()
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i, sent, err)
		}
		if m.Label != "tag" || m.Value != payload(i) {
			t.Fatalf("frame %d: got %q..., out of order or torn", i, fmt.Sprint(m.Value)[:6])
		}
	}
	if m, err := recv.Recv(); !errors.Is(err, channel.ErrClosed) {
		t.Fatalf("after the last frame: (%v, %v), want the goodbye's close", m.Label, err)
	}
}
