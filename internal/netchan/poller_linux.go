//go:build linux

package netchan

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
)

// poller is the epoll-backed readiness engine: one goroutine owns an epoll
// instance; registered connections are armed one-shot for readability, and
// each event drives the owning recvHalf's pump. The pump re-arms after
// draining the socket (EAGAIN) and stays disarmed while its ring is full —
// the consumer re-arms on drain — so a slow session never costs a spinning
// wakeup loop, and kernel-side backpressure does the buffering.
//
// Registered fds stay in the Go runtime's netpoller too (the two epoll
// instances are independent); only reads go through here — writes are the
// writer goroutine's blocking path or a sender's non-blocking direct write
// (bindDirect).
type poller struct {
	epfd int
	// Self-pipe: closing the epoll fd does not unblock a pending
	// epoll_wait, so close() writes a byte here to wake the loop.
	wakeR, wakeW int

	mu     sync.Mutex
	halves map[int32]*recvHalf
	closed bool
	done   chan struct{}
}

// pollerSupported reports whether the epoll pump is available here.
const pollerSupported = true

// epollOneShot is EPOLLONESHOT (the value is kernel ABI; the syscall
// package does not export it under that name on every arch).
const epollOneShot = 1 << 30

// newPoller creates the epoll instance and starts the dispatch loop.
func newPoller() (*poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("netchan: epoll_create1: %w", err)
	}
	var pipefds [2]int
	if err := syscall.Pipe2(pipefds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, fmt.Errorf("netchan: pipe2: %w", err)
	}
	p := &poller{
		epfd:   epfd,
		wakeR:  pipefds[0],
		wakeW:  pipefds[1],
		halves: map[int32]*recvHalf{},
		done:   make(chan struct{}),
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(p.wakeR)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(p.wakeR)
		syscall.Close(p.wakeW)
		return nil, fmt.Errorf("netchan: epoll_ctl wake pipe: %w", err)
	}
	go p.loop()
	return p, nil
}

func (p *poller) loop() {
	defer close(p.done)
	events := make([]syscall.EpollEvent, 64)
	for {
		n, err := syscall.EpollWait(p.epfd, events, -1)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			if int(events[i].Fd) == p.wakeR {
				return // close() wrote the wake byte
			}
			p.mu.Lock()
			r := p.halves[events[i].Fd]
			p.mu.Unlock()
			if r != nil {
				r.pump()
			}
		}
	}
}

// polledConn is a polled recvHalf's handle on its connection, bound once by
// add: the RawConn, the fd, and the read callback with its results, so the
// pump's reads and re-arms allocate nothing.
type polledConn struct {
	raw    syscall.RawConn
	fd     int32
	readFn func(uintptr) bool
	nread  int
	rerr   error
}

// add registers conn, armed one-shot for readability, owned by r. It binds
// r's polledConn. It errors for conns that expose no raw fd (net.Pipe).
func (p *poller) add(conn net.Conn, r *recvHalf) error {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return errors.New("netchan: connection does not expose a raw fd")
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	var fd int32 = -1
	if err := rc.Control(func(f uintptr) { fd = int32(f) }); err != nil {
		return err
	}
	r.raw, r.fd = rc, fd
	r.readFn = func(fd uintptr) bool {
		r.nread, r.rerr = syscall.Read(int(fd), r.rbuf)
		return true // never let the runtime park: we manage readiness
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("netchan: poller closed")
	}
	p.halves[fd] = r
	p.mu.Unlock()
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | epollOneShot, Fd: fd}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, int(fd), &ev); err != nil {
		p.mu.Lock()
		delete(p.halves, fd)
		p.mu.Unlock()
		return fmt.Errorf("netchan: epoll_ctl add: %w", err)
	}
	return nil
}

// rearm re-enables r's readiness interest after the pump drained the
// socket.
func (p *poller) rearm(r *recvHalf) error {
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | epollOneShot, Fd: r.fd}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_MOD, int(r.fd), &ev); err != nil {
		return fmt.Errorf("netchan: epoll_ctl mod: %w", err)
	}
	return nil
}

// remove deregisters r's finished connection.
func (p *poller) remove(r *recvHalf) {
	syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, int(r.fd), nil)
	p.mu.Lock()
	delete(p.halves, r.fd)
	p.mu.Unlock()
}

// close shuts the poller down: the wake byte unblocks the dispatch loop
// (closing an epoll fd does not), then the fds are released.
func (p *poller) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	syscall.Write(p.wakeW, []byte{1})
	<-p.done
	syscall.Close(p.epfd)
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// readNB does one non-blocking read off the polled connection into r.rbuf
// through the sanctioned RawConn path (the net package owns the fd), with
// the callback add bound. Returns errAgain when the socket is dry.
func (r *recvHalf) readNB() (int, error) {
	if err := r.raw.Read(r.readFn); err != nil {
		return 0, err
	}
	n, rerr := r.nread, r.rerr
	switch {
	case rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK:
		return 0, errAgain
	case rerr != nil:
		return 0, rerr
	case n == 0:
		return 0, ErrDisconnected
	}
	return n, nil
}

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
