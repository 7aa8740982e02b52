//go:build linux

package netchan

import (
	"net"
	"syscall"
)

// bindDirect readies TrySend's direct write on conn: the RawConn, and the
// callback bound once here, so that a direct write allocates nothing. The
// callback never asks the runtime to wait for writability: a full socket
// buffer leaves the rest of the frame to the writer goroutine.
func (s *sendHalf) bindDirect(conn net.Conn) {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return
	}
	s.raw = rc
	s.writeFn = func(fd uintptr) bool {
		s.wrote, _ = syscall.Write(int(fd), s.frame)
		return true
	}
}
