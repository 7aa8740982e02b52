// Code generated by sessgen (internal/codegen) from protocol "Optimised FFT", optimised=hand. DO NOT EDIT.

package fft

import (
	"repro/internal/codegen/genrt"
	"repro/internal/session"
	"repro/internal/types"
)

// Message labels of the protocol.
const (
	LabelCol types.Label = "col"
)

// Participants of the protocol.
const (
	RoleW0 types.Role = "w0"
	RoleW1 types.Role = "w1"
	RoleW2 types.Role = "w2"
	RoleW3 types.Role = "w3"
	RoleW4 types.Role = "w4"
	RoleW5 types.Role = "w5"
	RoleW6 types.Role = "w6"
	RoleW7 types.Role = "w7"
)

// Roles returns the participants in deterministic order.
func Roles() []types.Role {
	return []types.Role{RoleW0, RoleW1, RoleW2, RoleW3, RoleW4, RoleW5, RoleW6, RoleW7}
}

// NewNetwork returns a network over the protocol's roles on the default
// (unbounded lock-free ring) substrate.
func NewNetwork() *session.Network {
	return session.NewNetwork(Roles()...)
}

// Procs is one process per role, for Run.
type Procs struct {
	W0 func(W00) (W0End, error)
	W1 func(W10) (W1End, error)
	W2 func(W20) (W2End, error)
	W3 func(W30) (W3End, error)
	W4 func(W40) (W4End, error)
	W5 func(W50) (W5End, error)
	W6 func(W60) (W6End, error)
	W7 func(W70) (W7End, error)
}

// Run executes one process per role concurrently over net and returns the
// first error; on error the network is torn down so sibling processes
// blocked on messages that will never arrive fail promptly.
func Run(net *session.Network, p Procs) error {
	if p.W0 == nil {
		return genrt.MissingProc(RoleW0)
	}
	if p.W1 == nil {
		return genrt.MissingProc(RoleW1)
	}
	if p.W2 == nil {
		return genrt.MissingProc(RoleW2)
	}
	if p.W3 == nil {
		return genrt.MissingProc(RoleW3)
	}
	if p.W4 == nil {
		return genrt.MissingProc(RoleW4)
	}
	if p.W5 == nil {
		return genrt.MissingProc(RoleW5)
	}
	if p.W6 == nil {
		return genrt.MissingProc(RoleW6)
	}
	if p.W7 == nil {
		return genrt.MissingProc(RoleW7)
	}
	r := genrt.NewRunner(net)
	r.Go(RoleW0, func() error { return RunW0(net, p.W0) })
	r.Go(RoleW1, func() error { return RunW1(net, p.W1) })
	r.Go(RoleW2, func() error { return RunW2(net, p.W2) })
	r.Go(RoleW3, func() error { return RunW3(net, p.W3) })
	r.Go(RoleW4, func() error { return RunW4(net, p.W4) })
	r.Go(RoleW5, func() error { return RunW5(net, p.W5) })
	r.Go(RoleW6, func() error { return RunW6(net, p.W6) })
	r.Go(RoleW7, func() error { return RunW7(net, p.W7) })
	return r.Wait()
}

// ---- role w0 ----
//
// Verified machine: w4!{col(vec<complex128>).w4?{col(vec<complex128>).w2!{col(vec<complex128>).w2?{col(vec<complex128>).w1!{col(vec<complex128>).w1?{col(vec<complex128>).end}}}}}}

// w0Ep is role w0's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type w0Ep struct {
	c      *genrt.Core
	sendW1 session.UncheckedSend
	sendW2 session.UncheckedSend
	sendW4 session.UncheckedSend
	recvW1 session.UncheckedRecv
	recvW2 session.UncheckedRecv
	recvW4 session.UncheckedRecv
}

func newW0Ep(c *genrt.Core) (*w0Ep, error) {
	ep := &w0Ep{c: c}
	var err error
	if ep.sendW1, err = c.U().To(RoleW1); err != nil {
		return nil, err
	}
	if ep.sendW2, err = c.U().To(RoleW2); err != nil {
		return nil, err
	}
	if ep.sendW4, err = c.U().To(RoleW4); err != nil {
		return nil, err
	}
	if ep.recvW1, err = c.U().From(RoleW1); err != nil {
		return nil, err
	}
	if ep.recvW2, err = c.U().From(RoleW2); err != nil {
		return nil, err
	}
	if ep.recvW4, err = c.U().From(RoleW4); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunW0 runs f as role w0 on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunW0(net *session.Network, f func(W00) (W0End, error)) error {
	return genrt.Session(net, RoleW0, func(c *genrt.Core) error {
		ep, err := newW0Ep(c)
		if err != nil {
			return err
		}
		end, err := f(W00{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// W0End is role w0's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunW0.
type W0End struct {
	ep *w0Ep
	st genrt.St
}

// W00 is role w0's protocol state 0: w4!col(vec<complex128>) → state 1.
//
//sessgen:state
type W00 struct {
	ep *w0Ep
	st genrt.St
}

// SendCol sends w4!col(vec<complex128>) to w4, consuming the state and returning the next one.
func (s W00) SendCol(payload []complex128) (W01, error) {
	st, err := genrt.Send(s.st, "fft.W00", s.ep.sendW4, LabelCol, payload)
	if err != nil {
		return W01{}, err
	}
	return W01{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W00) TrySendCol(payload []complex128) (W01, error) {
	st, err := genrt.TrySend(s.st, "fft.W00", s.ep.sendW4, LabelCol, payload)
	if err != nil {
		return W01{}, err
	}
	return W01{ep: s.ep, st: st}, nil
}

// W01 is role w0's protocol state 1: w4?col(vec<complex128>) → state 2.
//
//sessgen:state
type W01 struct {
	ep *w0Ep
	st genrt.St
}

// RecvCol receives w4?col(vec<complex128>) from w4, consuming the state and returning the next one.
func (s W01) RecvCol() ([]complex128, W02, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W01", s.ep.recvW4, RoleW4, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W02{}, err
	}
	return payload, W02{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W01) TryRecvCol() ([]complex128, W02, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W01", s.ep.recvW4, RoleW4, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W02{}, err
	}
	return payload, W02{ep: s.ep, st: st}, nil
}

// W02 is role w0's protocol state 2: w2!col(vec<complex128>) → state 3.
//
//sessgen:state
type W02 struct {
	ep *w0Ep
	st genrt.St
}

// SendCol sends w2!col(vec<complex128>) to w2, consuming the state and returning the next one.
func (s W02) SendCol(payload []complex128) (W03, error) {
	st, err := genrt.Send(s.st, "fft.W02", s.ep.sendW2, LabelCol, payload)
	if err != nil {
		return W03{}, err
	}
	return W03{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W02) TrySendCol(payload []complex128) (W03, error) {
	st, err := genrt.TrySend(s.st, "fft.W02", s.ep.sendW2, LabelCol, payload)
	if err != nil {
		return W03{}, err
	}
	return W03{ep: s.ep, st: st}, nil
}

// W03 is role w0's protocol state 3: w2?col(vec<complex128>) → state 4.
//
//sessgen:state
type W03 struct {
	ep *w0Ep
	st genrt.St
}

// RecvCol receives w2?col(vec<complex128>) from w2, consuming the state and returning the next one.
func (s W03) RecvCol() ([]complex128, W04, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W03", s.ep.recvW2, RoleW2, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W04{}, err
	}
	return payload, W04{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W03) TryRecvCol() ([]complex128, W04, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W03", s.ep.recvW2, RoleW2, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W04{}, err
	}
	return payload, W04{ep: s.ep, st: st}, nil
}

// W04 is role w0's protocol state 4: w1!col(vec<complex128>) → state 5.
//
//sessgen:state
type W04 struct {
	ep *w0Ep
	st genrt.St
}

// SendCol sends w1!col(vec<complex128>) to w1, consuming the state and returning the next one.
func (s W04) SendCol(payload []complex128) (W05, error) {
	st, err := genrt.Send(s.st, "fft.W04", s.ep.sendW1, LabelCol, payload)
	if err != nil {
		return W05{}, err
	}
	return W05{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W04) TrySendCol(payload []complex128) (W05, error) {
	st, err := genrt.TrySend(s.st, "fft.W04", s.ep.sendW1, LabelCol, payload)
	if err != nil {
		return W05{}, err
	}
	return W05{ep: s.ep, st: st}, nil
}

// W05 is role w0's protocol state 5: w1?col(vec<complex128>) → state 6.
//
//sessgen:state
type W05 struct {
	ep *w0Ep
	st genrt.St
}

// RecvCol receives w1?col(vec<complex128>) from w1, consuming the state and returning the next one.
func (s W05) RecvCol() ([]complex128, W0End, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W05", s.ep.recvW1, RoleW1, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W0End{}, err
	}
	return payload, W0End{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W05) TryRecvCol() ([]complex128, W0End, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W05", s.ep.recvW1, RoleW1, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W0End{}, err
	}
	return payload, W0End{ep: s.ep, st: st}, nil
}

// ---- role w1 ----
//
// Verified machine: w5!{col(vec<complex128>).w5?{col(vec<complex128>).w3!{col(vec<complex128>).w3?{col(vec<complex128>).w0!{col(vec<complex128>).w0?{col(vec<complex128>).end}}}}}}

// w1Ep is role w1's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type w1Ep struct {
	c      *genrt.Core
	sendW0 session.UncheckedSend
	sendW3 session.UncheckedSend
	sendW5 session.UncheckedSend
	recvW0 session.UncheckedRecv
	recvW3 session.UncheckedRecv
	recvW5 session.UncheckedRecv
}

func newW1Ep(c *genrt.Core) (*w1Ep, error) {
	ep := &w1Ep{c: c}
	var err error
	if ep.sendW0, err = c.U().To(RoleW0); err != nil {
		return nil, err
	}
	if ep.sendW3, err = c.U().To(RoleW3); err != nil {
		return nil, err
	}
	if ep.sendW5, err = c.U().To(RoleW5); err != nil {
		return nil, err
	}
	if ep.recvW0, err = c.U().From(RoleW0); err != nil {
		return nil, err
	}
	if ep.recvW3, err = c.U().From(RoleW3); err != nil {
		return nil, err
	}
	if ep.recvW5, err = c.U().From(RoleW5); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunW1 runs f as role w1 on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunW1(net *session.Network, f func(W10) (W1End, error)) error {
	return genrt.Session(net, RoleW1, func(c *genrt.Core) error {
		ep, err := newW1Ep(c)
		if err != nil {
			return err
		}
		end, err := f(W10{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// W1End is role w1's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunW1.
type W1End struct {
	ep *w1Ep
	st genrt.St
}

// W10 is role w1's protocol state 0: w5!col(vec<complex128>) → state 1.
//
//sessgen:state
type W10 struct {
	ep *w1Ep
	st genrt.St
}

// SendCol sends w5!col(vec<complex128>) to w5, consuming the state and returning the next one.
func (s W10) SendCol(payload []complex128) (W11, error) {
	st, err := genrt.Send(s.st, "fft.W10", s.ep.sendW5, LabelCol, payload)
	if err != nil {
		return W11{}, err
	}
	return W11{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W10) TrySendCol(payload []complex128) (W11, error) {
	st, err := genrt.TrySend(s.st, "fft.W10", s.ep.sendW5, LabelCol, payload)
	if err != nil {
		return W11{}, err
	}
	return W11{ep: s.ep, st: st}, nil
}

// W11 is role w1's protocol state 1: w5?col(vec<complex128>) → state 2.
//
//sessgen:state
type W11 struct {
	ep *w1Ep
	st genrt.St
}

// RecvCol receives w5?col(vec<complex128>) from w5, consuming the state and returning the next one.
func (s W11) RecvCol() ([]complex128, W12, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W11", s.ep.recvW5, RoleW5, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W12{}, err
	}
	return payload, W12{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W11) TryRecvCol() ([]complex128, W12, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W11", s.ep.recvW5, RoleW5, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W12{}, err
	}
	return payload, W12{ep: s.ep, st: st}, nil
}

// W12 is role w1's protocol state 2: w3!col(vec<complex128>) → state 3.
//
//sessgen:state
type W12 struct {
	ep *w1Ep
	st genrt.St
}

// SendCol sends w3!col(vec<complex128>) to w3, consuming the state and returning the next one.
func (s W12) SendCol(payload []complex128) (W13, error) {
	st, err := genrt.Send(s.st, "fft.W12", s.ep.sendW3, LabelCol, payload)
	if err != nil {
		return W13{}, err
	}
	return W13{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W12) TrySendCol(payload []complex128) (W13, error) {
	st, err := genrt.TrySend(s.st, "fft.W12", s.ep.sendW3, LabelCol, payload)
	if err != nil {
		return W13{}, err
	}
	return W13{ep: s.ep, st: st}, nil
}

// W13 is role w1's protocol state 3: w3?col(vec<complex128>) → state 4.
//
//sessgen:state
type W13 struct {
	ep *w1Ep
	st genrt.St
}

// RecvCol receives w3?col(vec<complex128>) from w3, consuming the state and returning the next one.
func (s W13) RecvCol() ([]complex128, W14, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W13", s.ep.recvW3, RoleW3, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W14{}, err
	}
	return payload, W14{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W13) TryRecvCol() ([]complex128, W14, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W13", s.ep.recvW3, RoleW3, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W14{}, err
	}
	return payload, W14{ep: s.ep, st: st}, nil
}

// W14 is role w1's protocol state 4: w0!col(vec<complex128>) → state 5.
//
//sessgen:state
type W14 struct {
	ep *w1Ep
	st genrt.St
}

// SendCol sends w0!col(vec<complex128>) to w0, consuming the state and returning the next one.
func (s W14) SendCol(payload []complex128) (W15, error) {
	st, err := genrt.Send(s.st, "fft.W14", s.ep.sendW0, LabelCol, payload)
	if err != nil {
		return W15{}, err
	}
	return W15{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W14) TrySendCol(payload []complex128) (W15, error) {
	st, err := genrt.TrySend(s.st, "fft.W14", s.ep.sendW0, LabelCol, payload)
	if err != nil {
		return W15{}, err
	}
	return W15{ep: s.ep, st: st}, nil
}

// W15 is role w1's protocol state 5: w0?col(vec<complex128>) → state 6.
//
//sessgen:state
type W15 struct {
	ep *w1Ep
	st genrt.St
}

// RecvCol receives w0?col(vec<complex128>) from w0, consuming the state and returning the next one.
func (s W15) RecvCol() ([]complex128, W1End, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W15", s.ep.recvW0, RoleW0, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W1End{}, err
	}
	return payload, W1End{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W15) TryRecvCol() ([]complex128, W1End, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W15", s.ep.recvW0, RoleW0, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W1End{}, err
	}
	return payload, W1End{ep: s.ep, st: st}, nil
}

// ---- role w2 ----
//
// Verified machine: w6!{col(vec<complex128>).w6?{col(vec<complex128>).w0!{col(vec<complex128>).w0?{col(vec<complex128>).w3!{col(vec<complex128>).w3?{col(vec<complex128>).end}}}}}}

// w2Ep is role w2's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type w2Ep struct {
	c      *genrt.Core
	sendW0 session.UncheckedSend
	sendW3 session.UncheckedSend
	sendW6 session.UncheckedSend
	recvW0 session.UncheckedRecv
	recvW3 session.UncheckedRecv
	recvW6 session.UncheckedRecv
}

func newW2Ep(c *genrt.Core) (*w2Ep, error) {
	ep := &w2Ep{c: c}
	var err error
	if ep.sendW0, err = c.U().To(RoleW0); err != nil {
		return nil, err
	}
	if ep.sendW3, err = c.U().To(RoleW3); err != nil {
		return nil, err
	}
	if ep.sendW6, err = c.U().To(RoleW6); err != nil {
		return nil, err
	}
	if ep.recvW0, err = c.U().From(RoleW0); err != nil {
		return nil, err
	}
	if ep.recvW3, err = c.U().From(RoleW3); err != nil {
		return nil, err
	}
	if ep.recvW6, err = c.U().From(RoleW6); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunW2 runs f as role w2 on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunW2(net *session.Network, f func(W20) (W2End, error)) error {
	return genrt.Session(net, RoleW2, func(c *genrt.Core) error {
		ep, err := newW2Ep(c)
		if err != nil {
			return err
		}
		end, err := f(W20{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// W2End is role w2's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunW2.
type W2End struct {
	ep *w2Ep
	st genrt.St
}

// W20 is role w2's protocol state 0: w6!col(vec<complex128>) → state 1.
//
//sessgen:state
type W20 struct {
	ep *w2Ep
	st genrt.St
}

// SendCol sends w6!col(vec<complex128>) to w6, consuming the state and returning the next one.
func (s W20) SendCol(payload []complex128) (W21, error) {
	st, err := genrt.Send(s.st, "fft.W20", s.ep.sendW6, LabelCol, payload)
	if err != nil {
		return W21{}, err
	}
	return W21{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W20) TrySendCol(payload []complex128) (W21, error) {
	st, err := genrt.TrySend(s.st, "fft.W20", s.ep.sendW6, LabelCol, payload)
	if err != nil {
		return W21{}, err
	}
	return W21{ep: s.ep, st: st}, nil
}

// W21 is role w2's protocol state 1: w6?col(vec<complex128>) → state 2.
//
//sessgen:state
type W21 struct {
	ep *w2Ep
	st genrt.St
}

// RecvCol receives w6?col(vec<complex128>) from w6, consuming the state and returning the next one.
func (s W21) RecvCol() ([]complex128, W22, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W21", s.ep.recvW6, RoleW6, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W22{}, err
	}
	return payload, W22{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W21) TryRecvCol() ([]complex128, W22, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W21", s.ep.recvW6, RoleW6, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W22{}, err
	}
	return payload, W22{ep: s.ep, st: st}, nil
}

// W22 is role w2's protocol state 2: w0!col(vec<complex128>) → state 3.
//
//sessgen:state
type W22 struct {
	ep *w2Ep
	st genrt.St
}

// SendCol sends w0!col(vec<complex128>) to w0, consuming the state and returning the next one.
func (s W22) SendCol(payload []complex128) (W23, error) {
	st, err := genrt.Send(s.st, "fft.W22", s.ep.sendW0, LabelCol, payload)
	if err != nil {
		return W23{}, err
	}
	return W23{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W22) TrySendCol(payload []complex128) (W23, error) {
	st, err := genrt.TrySend(s.st, "fft.W22", s.ep.sendW0, LabelCol, payload)
	if err != nil {
		return W23{}, err
	}
	return W23{ep: s.ep, st: st}, nil
}

// W23 is role w2's protocol state 3: w0?col(vec<complex128>) → state 4.
//
//sessgen:state
type W23 struct {
	ep *w2Ep
	st genrt.St
}

// RecvCol receives w0?col(vec<complex128>) from w0, consuming the state and returning the next one.
func (s W23) RecvCol() ([]complex128, W24, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W23", s.ep.recvW0, RoleW0, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W24{}, err
	}
	return payload, W24{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W23) TryRecvCol() ([]complex128, W24, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W23", s.ep.recvW0, RoleW0, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W24{}, err
	}
	return payload, W24{ep: s.ep, st: st}, nil
}

// W24 is role w2's protocol state 4: w3!col(vec<complex128>) → state 5.
//
//sessgen:state
type W24 struct {
	ep *w2Ep
	st genrt.St
}

// SendCol sends w3!col(vec<complex128>) to w3, consuming the state and returning the next one.
func (s W24) SendCol(payload []complex128) (W25, error) {
	st, err := genrt.Send(s.st, "fft.W24", s.ep.sendW3, LabelCol, payload)
	if err != nil {
		return W25{}, err
	}
	return W25{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W24) TrySendCol(payload []complex128) (W25, error) {
	st, err := genrt.TrySend(s.st, "fft.W24", s.ep.sendW3, LabelCol, payload)
	if err != nil {
		return W25{}, err
	}
	return W25{ep: s.ep, st: st}, nil
}

// W25 is role w2's protocol state 5: w3?col(vec<complex128>) → state 6.
//
//sessgen:state
type W25 struct {
	ep *w2Ep
	st genrt.St
}

// RecvCol receives w3?col(vec<complex128>) from w3, consuming the state and returning the next one.
func (s W25) RecvCol() ([]complex128, W2End, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W25", s.ep.recvW3, RoleW3, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W2End{}, err
	}
	return payload, W2End{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W25) TryRecvCol() ([]complex128, W2End, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W25", s.ep.recvW3, RoleW3, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W2End{}, err
	}
	return payload, W2End{ep: s.ep, st: st}, nil
}

// ---- role w3 ----
//
// Verified machine: w7!{col(vec<complex128>).w7?{col(vec<complex128>).w1!{col(vec<complex128>).w1?{col(vec<complex128>).w2!{col(vec<complex128>).w2?{col(vec<complex128>).end}}}}}}

// w3Ep is role w3's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type w3Ep struct {
	c      *genrt.Core
	sendW1 session.UncheckedSend
	sendW2 session.UncheckedSend
	sendW7 session.UncheckedSend
	recvW1 session.UncheckedRecv
	recvW2 session.UncheckedRecv
	recvW7 session.UncheckedRecv
}

func newW3Ep(c *genrt.Core) (*w3Ep, error) {
	ep := &w3Ep{c: c}
	var err error
	if ep.sendW1, err = c.U().To(RoleW1); err != nil {
		return nil, err
	}
	if ep.sendW2, err = c.U().To(RoleW2); err != nil {
		return nil, err
	}
	if ep.sendW7, err = c.U().To(RoleW7); err != nil {
		return nil, err
	}
	if ep.recvW1, err = c.U().From(RoleW1); err != nil {
		return nil, err
	}
	if ep.recvW2, err = c.U().From(RoleW2); err != nil {
		return nil, err
	}
	if ep.recvW7, err = c.U().From(RoleW7); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunW3 runs f as role w3 on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunW3(net *session.Network, f func(W30) (W3End, error)) error {
	return genrt.Session(net, RoleW3, func(c *genrt.Core) error {
		ep, err := newW3Ep(c)
		if err != nil {
			return err
		}
		end, err := f(W30{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// W3End is role w3's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunW3.
type W3End struct {
	ep *w3Ep
	st genrt.St
}

// W30 is role w3's protocol state 0: w7!col(vec<complex128>) → state 1.
//
//sessgen:state
type W30 struct {
	ep *w3Ep
	st genrt.St
}

// SendCol sends w7!col(vec<complex128>) to w7, consuming the state and returning the next one.
func (s W30) SendCol(payload []complex128) (W31, error) {
	st, err := genrt.Send(s.st, "fft.W30", s.ep.sendW7, LabelCol, payload)
	if err != nil {
		return W31{}, err
	}
	return W31{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W30) TrySendCol(payload []complex128) (W31, error) {
	st, err := genrt.TrySend(s.st, "fft.W30", s.ep.sendW7, LabelCol, payload)
	if err != nil {
		return W31{}, err
	}
	return W31{ep: s.ep, st: st}, nil
}

// W31 is role w3's protocol state 1: w7?col(vec<complex128>) → state 2.
//
//sessgen:state
type W31 struct {
	ep *w3Ep
	st genrt.St
}

// RecvCol receives w7?col(vec<complex128>) from w7, consuming the state and returning the next one.
func (s W31) RecvCol() ([]complex128, W32, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W31", s.ep.recvW7, RoleW7, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W32{}, err
	}
	return payload, W32{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W31) TryRecvCol() ([]complex128, W32, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W31", s.ep.recvW7, RoleW7, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W32{}, err
	}
	return payload, W32{ep: s.ep, st: st}, nil
}

// W32 is role w3's protocol state 2: w1!col(vec<complex128>) → state 3.
//
//sessgen:state
type W32 struct {
	ep *w3Ep
	st genrt.St
}

// SendCol sends w1!col(vec<complex128>) to w1, consuming the state and returning the next one.
func (s W32) SendCol(payload []complex128) (W33, error) {
	st, err := genrt.Send(s.st, "fft.W32", s.ep.sendW1, LabelCol, payload)
	if err != nil {
		return W33{}, err
	}
	return W33{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W32) TrySendCol(payload []complex128) (W33, error) {
	st, err := genrt.TrySend(s.st, "fft.W32", s.ep.sendW1, LabelCol, payload)
	if err != nil {
		return W33{}, err
	}
	return W33{ep: s.ep, st: st}, nil
}

// W33 is role w3's protocol state 3: w1?col(vec<complex128>) → state 4.
//
//sessgen:state
type W33 struct {
	ep *w3Ep
	st genrt.St
}

// RecvCol receives w1?col(vec<complex128>) from w1, consuming the state and returning the next one.
func (s W33) RecvCol() ([]complex128, W34, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W33", s.ep.recvW1, RoleW1, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W34{}, err
	}
	return payload, W34{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W33) TryRecvCol() ([]complex128, W34, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W33", s.ep.recvW1, RoleW1, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W34{}, err
	}
	return payload, W34{ep: s.ep, st: st}, nil
}

// W34 is role w3's protocol state 4: w2!col(vec<complex128>) → state 5.
//
//sessgen:state
type W34 struct {
	ep *w3Ep
	st genrt.St
}

// SendCol sends w2!col(vec<complex128>) to w2, consuming the state and returning the next one.
func (s W34) SendCol(payload []complex128) (W35, error) {
	st, err := genrt.Send(s.st, "fft.W34", s.ep.sendW2, LabelCol, payload)
	if err != nil {
		return W35{}, err
	}
	return W35{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W34) TrySendCol(payload []complex128) (W35, error) {
	st, err := genrt.TrySend(s.st, "fft.W34", s.ep.sendW2, LabelCol, payload)
	if err != nil {
		return W35{}, err
	}
	return W35{ep: s.ep, st: st}, nil
}

// W35 is role w3's protocol state 5: w2?col(vec<complex128>) → state 6.
//
//sessgen:state
type W35 struct {
	ep *w3Ep
	st genrt.St
}

// RecvCol receives w2?col(vec<complex128>) from w2, consuming the state and returning the next one.
func (s W35) RecvCol() ([]complex128, W3End, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W35", s.ep.recvW2, RoleW2, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W3End{}, err
	}
	return payload, W3End{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W35) TryRecvCol() ([]complex128, W3End, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W35", s.ep.recvW2, RoleW2, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W3End{}, err
	}
	return payload, W3End{ep: s.ep, st: st}, nil
}

// ---- role w4 ----
//
// Verified machine: w0!{col(vec<complex128>).w0?{col(vec<complex128>).w6!{col(vec<complex128>).w6?{col(vec<complex128>).w5!{col(vec<complex128>).w5?{col(vec<complex128>).end}}}}}}

// w4Ep is role w4's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type w4Ep struct {
	c      *genrt.Core
	sendW0 session.UncheckedSend
	sendW5 session.UncheckedSend
	sendW6 session.UncheckedSend
	recvW0 session.UncheckedRecv
	recvW5 session.UncheckedRecv
	recvW6 session.UncheckedRecv
}

func newW4Ep(c *genrt.Core) (*w4Ep, error) {
	ep := &w4Ep{c: c}
	var err error
	if ep.sendW0, err = c.U().To(RoleW0); err != nil {
		return nil, err
	}
	if ep.sendW5, err = c.U().To(RoleW5); err != nil {
		return nil, err
	}
	if ep.sendW6, err = c.U().To(RoleW6); err != nil {
		return nil, err
	}
	if ep.recvW0, err = c.U().From(RoleW0); err != nil {
		return nil, err
	}
	if ep.recvW5, err = c.U().From(RoleW5); err != nil {
		return nil, err
	}
	if ep.recvW6, err = c.U().From(RoleW6); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunW4 runs f as role w4 on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunW4(net *session.Network, f func(W40) (W4End, error)) error {
	return genrt.Session(net, RoleW4, func(c *genrt.Core) error {
		ep, err := newW4Ep(c)
		if err != nil {
			return err
		}
		end, err := f(W40{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// W4End is role w4's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunW4.
type W4End struct {
	ep *w4Ep
	st genrt.St
}

// W40 is role w4's protocol state 0: w0!col(vec<complex128>) → state 1.
//
//sessgen:state
type W40 struct {
	ep *w4Ep
	st genrt.St
}

// SendCol sends w0!col(vec<complex128>) to w0, consuming the state and returning the next one.
func (s W40) SendCol(payload []complex128) (W41, error) {
	st, err := genrt.Send(s.st, "fft.W40", s.ep.sendW0, LabelCol, payload)
	if err != nil {
		return W41{}, err
	}
	return W41{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W40) TrySendCol(payload []complex128) (W41, error) {
	st, err := genrt.TrySend(s.st, "fft.W40", s.ep.sendW0, LabelCol, payload)
	if err != nil {
		return W41{}, err
	}
	return W41{ep: s.ep, st: st}, nil
}

// W41 is role w4's protocol state 1: w0?col(vec<complex128>) → state 2.
//
//sessgen:state
type W41 struct {
	ep *w4Ep
	st genrt.St
}

// RecvCol receives w0?col(vec<complex128>) from w0, consuming the state and returning the next one.
func (s W41) RecvCol() ([]complex128, W42, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W41", s.ep.recvW0, RoleW0, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W42{}, err
	}
	return payload, W42{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W41) TryRecvCol() ([]complex128, W42, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W41", s.ep.recvW0, RoleW0, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W42{}, err
	}
	return payload, W42{ep: s.ep, st: st}, nil
}

// W42 is role w4's protocol state 2: w6!col(vec<complex128>) → state 3.
//
//sessgen:state
type W42 struct {
	ep *w4Ep
	st genrt.St
}

// SendCol sends w6!col(vec<complex128>) to w6, consuming the state and returning the next one.
func (s W42) SendCol(payload []complex128) (W43, error) {
	st, err := genrt.Send(s.st, "fft.W42", s.ep.sendW6, LabelCol, payload)
	if err != nil {
		return W43{}, err
	}
	return W43{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W42) TrySendCol(payload []complex128) (W43, error) {
	st, err := genrt.TrySend(s.st, "fft.W42", s.ep.sendW6, LabelCol, payload)
	if err != nil {
		return W43{}, err
	}
	return W43{ep: s.ep, st: st}, nil
}

// W43 is role w4's protocol state 3: w6?col(vec<complex128>) → state 4.
//
//sessgen:state
type W43 struct {
	ep *w4Ep
	st genrt.St
}

// RecvCol receives w6?col(vec<complex128>) from w6, consuming the state and returning the next one.
func (s W43) RecvCol() ([]complex128, W44, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W43", s.ep.recvW6, RoleW6, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W44{}, err
	}
	return payload, W44{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W43) TryRecvCol() ([]complex128, W44, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W43", s.ep.recvW6, RoleW6, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W44{}, err
	}
	return payload, W44{ep: s.ep, st: st}, nil
}

// W44 is role w4's protocol state 4: w5!col(vec<complex128>) → state 5.
//
//sessgen:state
type W44 struct {
	ep *w4Ep
	st genrt.St
}

// SendCol sends w5!col(vec<complex128>) to w5, consuming the state and returning the next one.
func (s W44) SendCol(payload []complex128) (W45, error) {
	st, err := genrt.Send(s.st, "fft.W44", s.ep.sendW5, LabelCol, payload)
	if err != nil {
		return W45{}, err
	}
	return W45{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W44) TrySendCol(payload []complex128) (W45, error) {
	st, err := genrt.TrySend(s.st, "fft.W44", s.ep.sendW5, LabelCol, payload)
	if err != nil {
		return W45{}, err
	}
	return W45{ep: s.ep, st: st}, nil
}

// W45 is role w4's protocol state 5: w5?col(vec<complex128>) → state 6.
//
//sessgen:state
type W45 struct {
	ep *w4Ep
	st genrt.St
}

// RecvCol receives w5?col(vec<complex128>) from w5, consuming the state and returning the next one.
func (s W45) RecvCol() ([]complex128, W4End, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W45", s.ep.recvW5, RoleW5, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W4End{}, err
	}
	return payload, W4End{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W45) TryRecvCol() ([]complex128, W4End, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W45", s.ep.recvW5, RoleW5, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W4End{}, err
	}
	return payload, W4End{ep: s.ep, st: st}, nil
}

// ---- role w5 ----
//
// Verified machine: w1!{col(vec<complex128>).w1?{col(vec<complex128>).w7!{col(vec<complex128>).w7?{col(vec<complex128>).w4!{col(vec<complex128>).w4?{col(vec<complex128>).end}}}}}}

// w5Ep is role w5's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type w5Ep struct {
	c      *genrt.Core
	sendW1 session.UncheckedSend
	sendW4 session.UncheckedSend
	sendW7 session.UncheckedSend
	recvW1 session.UncheckedRecv
	recvW4 session.UncheckedRecv
	recvW7 session.UncheckedRecv
}

func newW5Ep(c *genrt.Core) (*w5Ep, error) {
	ep := &w5Ep{c: c}
	var err error
	if ep.sendW1, err = c.U().To(RoleW1); err != nil {
		return nil, err
	}
	if ep.sendW4, err = c.U().To(RoleW4); err != nil {
		return nil, err
	}
	if ep.sendW7, err = c.U().To(RoleW7); err != nil {
		return nil, err
	}
	if ep.recvW1, err = c.U().From(RoleW1); err != nil {
		return nil, err
	}
	if ep.recvW4, err = c.U().From(RoleW4); err != nil {
		return nil, err
	}
	if ep.recvW7, err = c.U().From(RoleW7); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunW5 runs f as role w5 on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunW5(net *session.Network, f func(W50) (W5End, error)) error {
	return genrt.Session(net, RoleW5, func(c *genrt.Core) error {
		ep, err := newW5Ep(c)
		if err != nil {
			return err
		}
		end, err := f(W50{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// W5End is role w5's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunW5.
type W5End struct {
	ep *w5Ep
	st genrt.St
}

// W50 is role w5's protocol state 0: w1!col(vec<complex128>) → state 1.
//
//sessgen:state
type W50 struct {
	ep *w5Ep
	st genrt.St
}

// SendCol sends w1!col(vec<complex128>) to w1, consuming the state and returning the next one.
func (s W50) SendCol(payload []complex128) (W51, error) {
	st, err := genrt.Send(s.st, "fft.W50", s.ep.sendW1, LabelCol, payload)
	if err != nil {
		return W51{}, err
	}
	return W51{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W50) TrySendCol(payload []complex128) (W51, error) {
	st, err := genrt.TrySend(s.st, "fft.W50", s.ep.sendW1, LabelCol, payload)
	if err != nil {
		return W51{}, err
	}
	return W51{ep: s.ep, st: st}, nil
}

// W51 is role w5's protocol state 1: w1?col(vec<complex128>) → state 2.
//
//sessgen:state
type W51 struct {
	ep *w5Ep
	st genrt.St
}

// RecvCol receives w1?col(vec<complex128>) from w1, consuming the state and returning the next one.
func (s W51) RecvCol() ([]complex128, W52, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W51", s.ep.recvW1, RoleW1, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W52{}, err
	}
	return payload, W52{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W51) TryRecvCol() ([]complex128, W52, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W51", s.ep.recvW1, RoleW1, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W52{}, err
	}
	return payload, W52{ep: s.ep, st: st}, nil
}

// W52 is role w5's protocol state 2: w7!col(vec<complex128>) → state 3.
//
//sessgen:state
type W52 struct {
	ep *w5Ep
	st genrt.St
}

// SendCol sends w7!col(vec<complex128>) to w7, consuming the state and returning the next one.
func (s W52) SendCol(payload []complex128) (W53, error) {
	st, err := genrt.Send(s.st, "fft.W52", s.ep.sendW7, LabelCol, payload)
	if err != nil {
		return W53{}, err
	}
	return W53{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W52) TrySendCol(payload []complex128) (W53, error) {
	st, err := genrt.TrySend(s.st, "fft.W52", s.ep.sendW7, LabelCol, payload)
	if err != nil {
		return W53{}, err
	}
	return W53{ep: s.ep, st: st}, nil
}

// W53 is role w5's protocol state 3: w7?col(vec<complex128>) → state 4.
//
//sessgen:state
type W53 struct {
	ep *w5Ep
	st genrt.St
}

// RecvCol receives w7?col(vec<complex128>) from w7, consuming the state and returning the next one.
func (s W53) RecvCol() ([]complex128, W54, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W53", s.ep.recvW7, RoleW7, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W54{}, err
	}
	return payload, W54{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W53) TryRecvCol() ([]complex128, W54, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W53", s.ep.recvW7, RoleW7, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W54{}, err
	}
	return payload, W54{ep: s.ep, st: st}, nil
}

// W54 is role w5's protocol state 4: w4!col(vec<complex128>) → state 5.
//
//sessgen:state
type W54 struct {
	ep *w5Ep
	st genrt.St
}

// SendCol sends w4!col(vec<complex128>) to w4, consuming the state and returning the next one.
func (s W54) SendCol(payload []complex128) (W55, error) {
	st, err := genrt.Send(s.st, "fft.W54", s.ep.sendW4, LabelCol, payload)
	if err != nil {
		return W55{}, err
	}
	return W55{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W54) TrySendCol(payload []complex128) (W55, error) {
	st, err := genrt.TrySend(s.st, "fft.W54", s.ep.sendW4, LabelCol, payload)
	if err != nil {
		return W55{}, err
	}
	return W55{ep: s.ep, st: st}, nil
}

// W55 is role w5's protocol state 5: w4?col(vec<complex128>) → state 6.
//
//sessgen:state
type W55 struct {
	ep *w5Ep
	st genrt.St
}

// RecvCol receives w4?col(vec<complex128>) from w4, consuming the state and returning the next one.
func (s W55) RecvCol() ([]complex128, W5End, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W55", s.ep.recvW4, RoleW4, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W5End{}, err
	}
	return payload, W5End{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W55) TryRecvCol() ([]complex128, W5End, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W55", s.ep.recvW4, RoleW4, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W5End{}, err
	}
	return payload, W5End{ep: s.ep, st: st}, nil
}

// ---- role w6 ----
//
// Verified machine: w2!{col(vec<complex128>).w2?{col(vec<complex128>).w4!{col(vec<complex128>).w4?{col(vec<complex128>).w7!{col(vec<complex128>).w7?{col(vec<complex128>).end}}}}}}

// w6Ep is role w6's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type w6Ep struct {
	c      *genrt.Core
	sendW2 session.UncheckedSend
	sendW4 session.UncheckedSend
	sendW7 session.UncheckedSend
	recvW2 session.UncheckedRecv
	recvW4 session.UncheckedRecv
	recvW7 session.UncheckedRecv
}

func newW6Ep(c *genrt.Core) (*w6Ep, error) {
	ep := &w6Ep{c: c}
	var err error
	if ep.sendW2, err = c.U().To(RoleW2); err != nil {
		return nil, err
	}
	if ep.sendW4, err = c.U().To(RoleW4); err != nil {
		return nil, err
	}
	if ep.sendW7, err = c.U().To(RoleW7); err != nil {
		return nil, err
	}
	if ep.recvW2, err = c.U().From(RoleW2); err != nil {
		return nil, err
	}
	if ep.recvW4, err = c.U().From(RoleW4); err != nil {
		return nil, err
	}
	if ep.recvW7, err = c.U().From(RoleW7); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunW6 runs f as role w6 on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunW6(net *session.Network, f func(W60) (W6End, error)) error {
	return genrt.Session(net, RoleW6, func(c *genrt.Core) error {
		ep, err := newW6Ep(c)
		if err != nil {
			return err
		}
		end, err := f(W60{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// W6End is role w6's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunW6.
type W6End struct {
	ep *w6Ep
	st genrt.St
}

// W60 is role w6's protocol state 0: w2!col(vec<complex128>) → state 1.
//
//sessgen:state
type W60 struct {
	ep *w6Ep
	st genrt.St
}

// SendCol sends w2!col(vec<complex128>) to w2, consuming the state and returning the next one.
func (s W60) SendCol(payload []complex128) (W61, error) {
	st, err := genrt.Send(s.st, "fft.W60", s.ep.sendW2, LabelCol, payload)
	if err != nil {
		return W61{}, err
	}
	return W61{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W60) TrySendCol(payload []complex128) (W61, error) {
	st, err := genrt.TrySend(s.st, "fft.W60", s.ep.sendW2, LabelCol, payload)
	if err != nil {
		return W61{}, err
	}
	return W61{ep: s.ep, st: st}, nil
}

// W61 is role w6's protocol state 1: w2?col(vec<complex128>) → state 2.
//
//sessgen:state
type W61 struct {
	ep *w6Ep
	st genrt.St
}

// RecvCol receives w2?col(vec<complex128>) from w2, consuming the state and returning the next one.
func (s W61) RecvCol() ([]complex128, W62, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W61", s.ep.recvW2, RoleW2, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W62{}, err
	}
	return payload, W62{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W61) TryRecvCol() ([]complex128, W62, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W61", s.ep.recvW2, RoleW2, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W62{}, err
	}
	return payload, W62{ep: s.ep, st: st}, nil
}

// W62 is role w6's protocol state 2: w4!col(vec<complex128>) → state 3.
//
//sessgen:state
type W62 struct {
	ep *w6Ep
	st genrt.St
}

// SendCol sends w4!col(vec<complex128>) to w4, consuming the state and returning the next one.
func (s W62) SendCol(payload []complex128) (W63, error) {
	st, err := genrt.Send(s.st, "fft.W62", s.ep.sendW4, LabelCol, payload)
	if err != nil {
		return W63{}, err
	}
	return W63{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W62) TrySendCol(payload []complex128) (W63, error) {
	st, err := genrt.TrySend(s.st, "fft.W62", s.ep.sendW4, LabelCol, payload)
	if err != nil {
		return W63{}, err
	}
	return W63{ep: s.ep, st: st}, nil
}

// W63 is role w6's protocol state 3: w4?col(vec<complex128>) → state 4.
//
//sessgen:state
type W63 struct {
	ep *w6Ep
	st genrt.St
}

// RecvCol receives w4?col(vec<complex128>) from w4, consuming the state and returning the next one.
func (s W63) RecvCol() ([]complex128, W64, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W63", s.ep.recvW4, RoleW4, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W64{}, err
	}
	return payload, W64{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W63) TryRecvCol() ([]complex128, W64, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W63", s.ep.recvW4, RoleW4, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W64{}, err
	}
	return payload, W64{ep: s.ep, st: st}, nil
}

// W64 is role w6's protocol state 4: w7!col(vec<complex128>) → state 5.
//
//sessgen:state
type W64 struct {
	ep *w6Ep
	st genrt.St
}

// SendCol sends w7!col(vec<complex128>) to w7, consuming the state and returning the next one.
func (s W64) SendCol(payload []complex128) (W65, error) {
	st, err := genrt.Send(s.st, "fft.W64", s.ep.sendW7, LabelCol, payload)
	if err != nil {
		return W65{}, err
	}
	return W65{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W64) TrySendCol(payload []complex128) (W65, error) {
	st, err := genrt.TrySend(s.st, "fft.W64", s.ep.sendW7, LabelCol, payload)
	if err != nil {
		return W65{}, err
	}
	return W65{ep: s.ep, st: st}, nil
}

// W65 is role w6's protocol state 5: w7?col(vec<complex128>) → state 6.
//
//sessgen:state
type W65 struct {
	ep *w6Ep
	st genrt.St
}

// RecvCol receives w7?col(vec<complex128>) from w7, consuming the state and returning the next one.
func (s W65) RecvCol() ([]complex128, W6End, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W65", s.ep.recvW7, RoleW7, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W6End{}, err
	}
	return payload, W6End{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W65) TryRecvCol() ([]complex128, W6End, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W65", s.ep.recvW7, RoleW7, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W6End{}, err
	}
	return payload, W6End{ep: s.ep, st: st}, nil
}

// ---- role w7 ----
//
// Verified machine: w3!{col(vec<complex128>).w3?{col(vec<complex128>).w5!{col(vec<complex128>).w5?{col(vec<complex128>).w6!{col(vec<complex128>).w6?{col(vec<complex128>).end}}}}}}

// w7Ep is role w7's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type w7Ep struct {
	c      *genrt.Core
	sendW3 session.UncheckedSend
	sendW5 session.UncheckedSend
	sendW6 session.UncheckedSend
	recvW3 session.UncheckedRecv
	recvW5 session.UncheckedRecv
	recvW6 session.UncheckedRecv
}

func newW7Ep(c *genrt.Core) (*w7Ep, error) {
	ep := &w7Ep{c: c}
	var err error
	if ep.sendW3, err = c.U().To(RoleW3); err != nil {
		return nil, err
	}
	if ep.sendW5, err = c.U().To(RoleW5); err != nil {
		return nil, err
	}
	if ep.sendW6, err = c.U().To(RoleW6); err != nil {
		return nil, err
	}
	if ep.recvW3, err = c.U().From(RoleW3); err != nil {
		return nil, err
	}
	if ep.recvW5, err = c.U().From(RoleW5); err != nil {
		return nil, err
	}
	if ep.recvW6, err = c.U().From(RoleW6); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunW7 runs f as role w7 on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunW7(net *session.Network, f func(W70) (W7End, error)) error {
	return genrt.Session(net, RoleW7, func(c *genrt.Core) error {
		ep, err := newW7Ep(c)
		if err != nil {
			return err
		}
		end, err := f(W70{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// W7End is role w7's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunW7.
type W7End struct {
	ep *w7Ep
	st genrt.St
}

// W70 is role w7's protocol state 0: w3!col(vec<complex128>) → state 1.
//
//sessgen:state
type W70 struct {
	ep *w7Ep
	st genrt.St
}

// SendCol sends w3!col(vec<complex128>) to w3, consuming the state and returning the next one.
func (s W70) SendCol(payload []complex128) (W71, error) {
	st, err := genrt.Send(s.st, "fft.W70", s.ep.sendW3, LabelCol, payload)
	if err != nil {
		return W71{}, err
	}
	return W71{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W70) TrySendCol(payload []complex128) (W71, error) {
	st, err := genrt.TrySend(s.st, "fft.W70", s.ep.sendW3, LabelCol, payload)
	if err != nil {
		return W71{}, err
	}
	return W71{ep: s.ep, st: st}, nil
}

// W71 is role w7's protocol state 1: w3?col(vec<complex128>) → state 2.
//
//sessgen:state
type W71 struct {
	ep *w7Ep
	st genrt.St
}

// RecvCol receives w3?col(vec<complex128>) from w3, consuming the state and returning the next one.
func (s W71) RecvCol() ([]complex128, W72, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W71", s.ep.recvW3, RoleW3, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W72{}, err
	}
	return payload, W72{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W71) TryRecvCol() ([]complex128, W72, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W71", s.ep.recvW3, RoleW3, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W72{}, err
	}
	return payload, W72{ep: s.ep, st: st}, nil
}

// W72 is role w7's protocol state 2: w5!col(vec<complex128>) → state 3.
//
//sessgen:state
type W72 struct {
	ep *w7Ep
	st genrt.St
}

// SendCol sends w5!col(vec<complex128>) to w5, consuming the state and returning the next one.
func (s W72) SendCol(payload []complex128) (W73, error) {
	st, err := genrt.Send(s.st, "fft.W72", s.ep.sendW5, LabelCol, payload)
	if err != nil {
		return W73{}, err
	}
	return W73{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W72) TrySendCol(payload []complex128) (W73, error) {
	st, err := genrt.TrySend(s.st, "fft.W72", s.ep.sendW5, LabelCol, payload)
	if err != nil {
		return W73{}, err
	}
	return W73{ep: s.ep, st: st}, nil
}

// W73 is role w7's protocol state 3: w5?col(vec<complex128>) → state 4.
//
//sessgen:state
type W73 struct {
	ep *w7Ep
	st genrt.St
}

// RecvCol receives w5?col(vec<complex128>) from w5, consuming the state and returning the next one.
func (s W73) RecvCol() ([]complex128, W74, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W73", s.ep.recvW5, RoleW5, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W74{}, err
	}
	return payload, W74{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W73) TryRecvCol() ([]complex128, W74, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W73", s.ep.recvW5, RoleW5, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W74{}, err
	}
	return payload, W74{ep: s.ep, st: st}, nil
}

// W74 is role w7's protocol state 4: w6!col(vec<complex128>) → state 5.
//
//sessgen:state
type W74 struct {
	ep *w7Ep
	st genrt.St
}

// SendCol sends w6!col(vec<complex128>) to w6, consuming the state and returning the next one.
func (s W74) SendCol(payload []complex128) (W75, error) {
	st, err := genrt.Send(s.st, "fft.W74", s.ep.sendW6, LabelCol, payload)
	if err != nil {
		return W75{}, err
	}
	return W75{ep: s.ep, st: st}, nil
}

// TrySendCol is the non-blocking SendCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s W74) TrySendCol(payload []complex128) (W75, error) {
	st, err := genrt.TrySend(s.st, "fft.W74", s.ep.sendW6, LabelCol, payload)
	if err != nil {
		return W75{}, err
	}
	return W75{ep: s.ep, st: st}, nil
}

// W75 is role w7's protocol state 5: w6?col(vec<complex128>) → state 6.
//
//sessgen:state
type W75 struct {
	ep *w7Ep
	st genrt.St
}

// RecvCol receives w6?col(vec<complex128>) from w6, consuming the state and returning the next one.
func (s W75) RecvCol() ([]complex128, W7End, error) {
	payload, st, err := genrt.Recv(s.st, "fft.W75", s.ep.recvW6, RoleW6, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W7End{}, err
	}
	return payload, W7End{ep: s.ep, st: st}, nil
}

// TryRecvCol is the non-blocking RecvCol: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s W75) TryRecvCol() ([]complex128, W7End, error) {
	payload, st, err := genrt.TryRecv(s.st, "fft.W75", s.ep.recvW6, RoleW6, LabelCol, func(v any) ([]complex128, error) { return genrt.As[[]complex128]("vec<complex128>", v) })
	if err != nil {
		return *new([]complex128), W7End{}, err
	}
	return payload, W7End{ep: s.ep, st: st}, nil
}
