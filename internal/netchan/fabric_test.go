package netchan

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/types"
	"repro/internal/wire"
)

// A receive half waiting for its peer to dial holds a timer, not a
// goroutine: once many peers have dialed and their routes are attached, no
// goroutine is left parked in makeRecv, and every route delivers.
func TestFabricWaitingRecvHoldsNoGoroutine(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("unix sockets")
	}
	const peers = 64
	tab := testTable(t)
	f := NewFabric("h", tab, Options{DialTimeout: 30 * time.Second})
	defer f.Close()
	addr, err := f.Listen("unix", filepath.Join(t.TempDir(), "h.sock"))
	if err != nil {
		t.Fatal(err)
	}
	halves := make([]*recvHalf, peers)
	for i := range halves {
		halves[i] = f.makeRecv(types.Role(fmt.Sprintf("r%d", i))).(*recvHalf)
	}
	for i := range halves {
		c, err := net.Dial("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		frames := wire.AppendHello(nil, types.Role(fmt.Sprintf("r%d", i)), "h", tab.Protocol())
		if frames, err = tab.AppendData(frames, "val", int32(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frames); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range halves {
		m, err := r.Recv()
		if err != nil || m.Value != int32(i) {
			t.Fatalf("route r%d->h delivered (%v, %v)", i, m.Value, err)
		}
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	parked := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "netchan.(*Fabric).makeRecv") {
			parked++
		}
	}
	if parked > 0 {
		t.Fatalf("%d goroutines parked in makeRecv after every route attached", parked)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, r := range halves {
		if r.dialTimer.Stop() {
			t.Fatalf("route r%d->h attached with its dial timer still armed", i)
		}
	}
}

// A peer that never dials fails its receive half at DialTimeout with a
// cause naming the route.
func TestFabricRecvNeverDialed(t *testing.T) {
	const timeout = 50 * time.Millisecond
	f := NewFabric("h", testTable(t), Options{DialTimeout: timeout})
	defer f.Close()
	start := time.Now()
	r := f.makeRecv("ghost")
	_, err := r.Recv()
	if err == nil || !strings.Contains(err.Error(), "peer ghost never dialed route ghost->h") {
		t.Fatalf("Recv on a never-dialed route: %v", err)
	}
	if waited := time.Since(start); waited < timeout {
		t.Fatalf("route failed after %v, before its %v DialTimeout", waited, timeout)
	}
}

// Frames from a few bytes to several times the read buffer's largest
// regular size cross one route whole and in order, whether they arrive
// alone or packed many to a read: the receive buffer grows to fit and the
// parse keeps its place across reads.
func TestRecvMixedFrameSizes(t *testing.T) {
	p := Pipe(testTable(t), Options{Buffer: 8})
	defer p.Close()
	sizes := []int{0, 3, readMin - 9, readMin, 5 * readMin, readMax, 3*readMax + 17, 1, 2}
	payload := func(i int) string { return fmt.Sprintf("%06d", i) + strings.Repeat("y", sizes[i%len(sizes)]) }
	const n = 4 * 9
	go func() {
		for i := 0; i < n; i++ {
			if err := p.Send(channel.Message{Label: "tag", Value: payload(i)}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := p.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Value != payload(i) {
			got, _ := m.Value.(string)
			t.Fatalf("frame %d: got %d bytes starting %.6q, want %d", i, len(got), got, len(payload(i)))
		}
	}
}
