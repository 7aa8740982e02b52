//go:build !linux

package netchan

import (
	"errors"
	"net"
)

// pollerSupported reports whether the epoll pump is available here. On
// non-Linux platforms every receive pump runs as a goroutine parked on the
// Go runtime's netpoller — the portable fallback.
const pollerSupported = false

// poller is never instantiated off Linux; the methods exist so the
// platform-independent pump code compiles.
type poller struct{}

// polledConn holds nothing off Linux.
type polledConn struct{}

func newPoller() (*poller, error) {
	return nil, errors.New("netchan: readiness poller not supported on this platform")
}

func (p *poller) add(net.Conn, *recvHalf) error { return errors.New("netchan: poller unavailable") }
func (p *poller) rearm(*recvHalf) error         { return errors.New("netchan: poller unavailable") }
func (p *poller) remove(*recvHalf)              {}
func (p *poller) close()                        {}

// readNB is unreachable off Linux (no conn is ever polled).
func (r *recvHalf) readNB() (int, error) { return 0, errAgain }

// bindDirect leaves the direct write off: every frame goes through the
// writer goroutine.
func (s *sendHalf) bindDirect(net.Conn) {}
