//go:build !linux

package netchan

import "net"

// bindDirect leaves the direct write off: every frame goes through the
// writer goroutine.
func (s *sendHalf) bindDirect(net.Conn) {}
