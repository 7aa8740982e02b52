// Code generated by sessgen (internal/codegen) from protocol "Ring", optimised=none. DO NOT EDIT.

package ring

import (
	"repro/internal/codegen/genrt"
	"repro/internal/session"
	"repro/internal/types"
)

// Message labels of the protocol.
const (
	LabelV types.Label = "v"
)

// Participants of the protocol.
const (
	RoleA types.Role = "a"
	RoleB types.Role = "b"
	RoleC types.Role = "c"
)

// Roles returns the participants in deterministic order.
func Roles() []types.Role {
	return []types.Role{RoleA, RoleB, RoleC}
}

// NewNetwork returns a network over the protocol's roles on the default
// (unbounded lock-free ring) substrate.
func NewNetwork() *session.Network {
	return session.NewNetwork(Roles()...)
}

// Procs is one process per role, for Run.
type Procs struct {
	A func(A0) error
	B func(B0) error
	C func(C0) error
}

// Run executes one process per role concurrently over net and returns the
// first error; on error the network is torn down so sibling processes
// blocked on messages that will never arrive fail promptly.
func Run(net *session.Network, p Procs) error {
	if p.A == nil {
		return genrt.MissingProc(RoleA)
	}
	if p.B == nil {
		return genrt.MissingProc(RoleB)
	}
	if p.C == nil {
		return genrt.MissingProc(RoleC)
	}
	r := genrt.NewRunner(net)
	r.Go(RoleA, func() error { return RunA(net, p.A) })
	r.Go(RoleB, func() error { return RunB(net, p.B) })
	r.Go(RoleC, func() error { return RunC(net, p.C) })
	return r.Wait()
}

// ---- role a ----
//
// Verified machine: mu x0.b!{v.c?{v.x0}}

// aEp is role a's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type aEp struct {
	c     *genrt.Core
	sendB session.UncheckedSend
	recvC session.UncheckedRecv
}

func newAEp(c *genrt.Core) (*aEp, error) {
	ep := &aEp{c: c}
	var err error
	if ep.sendB, err = c.U().To(RoleB); err != nil {
		return nil, err
	}
	if ep.recvC, err = c.U().From(RoleC); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunA runs f as role a on net with exclusive endpoint ownership. The
// protocol is infinite (no terminal state is reachable), so completion
// cannot be witnessed: f stops deliberately by returning, and callers bound
// iteration counts so all roles stop consistently.
func RunA(net *session.Network, f func(A0) error) error {
	return genrt.Session(net, RoleA, func(c *genrt.Core) error {
		ep, err := newAEp(c)
		if err != nil {
			return err
		}
		return f(A0{ep: ep, st: c.Init()})
	})
}

// A0 is role a's protocol state 0: b!v → state 2.
//
//sessgen:state
type A0 struct {
	ep *aEp
	st genrt.St
}

// SendV sends b!v to b, consuming the state and returning the next one.
func (s A0) SendV() (A2, error) {
	st, err := genrt.Send(s.st, "ring.A0", s.ep.sendB, LabelV, nil)
	if err != nil {
		return A2{}, err
	}
	return A2{ep: s.ep, st: st}, nil
}

// TrySendV is the non-blocking SendV: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s A0) TrySendV() (A2, error) {
	st, err := genrt.TrySend(s.st, "ring.A0", s.ep.sendB, LabelV, nil)
	if err != nil {
		return A2{}, err
	}
	return A2{ep: s.ep, st: st}, nil
}

// A2 is role a's protocol state 2: c?v → state 0.
//
//sessgen:state
type A2 struct {
	ep *aEp
	st genrt.St
}

// RecvV receives c?v from c, consuming the state and returning the next one.
func (s A2) RecvV() (A0, error) {
	_, st, err := genrt.Recv(s.st, "ring.A2", s.ep.recvC, RoleC, LabelV, genrt.Signal)
	if err != nil {
		return A0{}, err
	}
	return A0{ep: s.ep, st: st}, nil
}

// TryRecvV is the non-blocking RecvV: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s A2) TryRecvV() (A0, error) {
	_, st, err := genrt.TryRecv(s.st, "ring.A2", s.ep.recvC, RoleC, LabelV, genrt.Signal)
	if err != nil {
		return A0{}, err
	}
	return A0{ep: s.ep, st: st}, nil
}

// ---- role b ----
//
// Verified machine: mu x0.a?{v.c!{v.x0}}

// bEp is role b's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type bEp struct {
	c     *genrt.Core
	sendC session.UncheckedSend
	recvA session.UncheckedRecv
}

func newBEp(c *genrt.Core) (*bEp, error) {
	ep := &bEp{c: c}
	var err error
	if ep.sendC, err = c.U().To(RoleC); err != nil {
		return nil, err
	}
	if ep.recvA, err = c.U().From(RoleA); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunB runs f as role b on net with exclusive endpoint ownership. The
// protocol is infinite (no terminal state is reachable), so completion
// cannot be witnessed: f stops deliberately by returning, and callers bound
// iteration counts so all roles stop consistently.
func RunB(net *session.Network, f func(B0) error) error {
	return genrt.Session(net, RoleB, func(c *genrt.Core) error {
		ep, err := newBEp(c)
		if err != nil {
			return err
		}
		return f(B0{ep: ep, st: c.Init()})
	})
}

// B0 is role b's protocol state 0: a?v → state 2.
//
//sessgen:state
type B0 struct {
	ep *bEp
	st genrt.St
}

// RecvV receives a?v from a, consuming the state and returning the next one.
func (s B0) RecvV() (B2, error) {
	_, st, err := genrt.Recv(s.st, "ring.B0", s.ep.recvA, RoleA, LabelV, genrt.Signal)
	if err != nil {
		return B2{}, err
	}
	return B2{ep: s.ep, st: st}, nil
}

// TryRecvV is the non-blocking RecvV: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s B0) TryRecvV() (B2, error) {
	_, st, err := genrt.TryRecv(s.st, "ring.B0", s.ep.recvA, RoleA, LabelV, genrt.Signal)
	if err != nil {
		return B2{}, err
	}
	return B2{ep: s.ep, st: st}, nil
}

// B2 is role b's protocol state 2: c!v → state 0.
//
//sessgen:state
type B2 struct {
	ep *bEp
	st genrt.St
}

// SendV sends c!v to c, consuming the state and returning the next one.
func (s B2) SendV() (B0, error) {
	st, err := genrt.Send(s.st, "ring.B2", s.ep.sendC, LabelV, nil)
	if err != nil {
		return B0{}, err
	}
	return B0{ep: s.ep, st: st}, nil
}

// TrySendV is the non-blocking SendV: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s B2) TrySendV() (B0, error) {
	st, err := genrt.TrySend(s.st, "ring.B2", s.ep.sendC, LabelV, nil)
	if err != nil {
		return B0{}, err
	}
	return B0{ep: s.ep, st: st}, nil
}

// ---- role c ----
//
// Verified machine: mu x0.b?{v.a!{v.x0}}

// cEp is role c's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type cEp struct {
	c     *genrt.Core
	sendA session.UncheckedSend
	recvB session.UncheckedRecv
}

func newCEp(c *genrt.Core) (*cEp, error) {
	ep := &cEp{c: c}
	var err error
	if ep.sendA, err = c.U().To(RoleA); err != nil {
		return nil, err
	}
	if ep.recvB, err = c.U().From(RoleB); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunC runs f as role c on net with exclusive endpoint ownership. The
// protocol is infinite (no terminal state is reachable), so completion
// cannot be witnessed: f stops deliberately by returning, and callers bound
// iteration counts so all roles stop consistently.
func RunC(net *session.Network, f func(C0) error) error {
	return genrt.Session(net, RoleC, func(c *genrt.Core) error {
		ep, err := newCEp(c)
		if err != nil {
			return err
		}
		return f(C0{ep: ep, st: c.Init()})
	})
}

// C0 is role c's protocol state 0: b?v → state 2.
//
//sessgen:state
type C0 struct {
	ep *cEp
	st genrt.St
}

// RecvV receives b?v from b, consuming the state and returning the next one.
func (s C0) RecvV() (C2, error) {
	_, st, err := genrt.Recv(s.st, "ring.C0", s.ep.recvB, RoleB, LabelV, genrt.Signal)
	if err != nil {
		return C2{}, err
	}
	return C2{ep: s.ep, st: st}, nil
}

// TryRecvV is the non-blocking RecvV: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s C0) TryRecvV() (C2, error) {
	_, st, err := genrt.TryRecv(s.st, "ring.C0", s.ep.recvB, RoleB, LabelV, genrt.Signal)
	if err != nil {
		return C2{}, err
	}
	return C2{ep: s.ep, st: st}, nil
}

// C2 is role c's protocol state 2: a!v → state 0.
//
//sessgen:state
type C2 struct {
	ep *cEp
	st genrt.St
}

// SendV sends a!v to a, consuming the state and returning the next one.
func (s C2) SendV() (C0, error) {
	st, err := genrt.Send(s.st, "ring.C2", s.ep.sendA, LabelV, nil)
	if err != nil {
		return C0{}, err
	}
	return C0{ep: s.ep, st: st}, nil
}

// TrySendV is the non-blocking SendV: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s C2) TrySendV() (C0, error) {
	st, err := genrt.TrySend(s.st, "ring.C2", s.ep.sendA, LabelV, nil)
	if err != nil {
		return C0{}, err
	}
	return C0{ep: s.ep, st: st}, nil
}
