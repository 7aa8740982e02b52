// Code generated by sessgen (internal/codegen) from protocol "Elevator", optimised=none. DO NOT EDIT.

package elevator

import (
	"repro/internal/codegen/genrt"
	"repro/internal/session"
	"repro/internal/types"
)

// Message labels of the protocol.
const (
	LabelDone types.Label = "done"
	LabelDown types.Label = "down"
	LabelOpen types.Label = "open"
	LabelUp   types.Label = "up"
)

// Participants of the protocol.
const (
	RoleD types.Role = "d"
	RoleE types.Role = "e"
	RoleP types.Role = "p"
)

// Roles returns the participants in deterministic order.
func Roles() []types.Role {
	return []types.Role{RoleD, RoleE, RoleP}
}

// NewNetwork returns a network over the protocol's roles on the default
// (unbounded lock-free ring) substrate.
func NewNetwork() *session.Network {
	return session.NewNetwork(Roles()...)
}

// Procs is one process per role, for Run.
type Procs struct {
	D func(D0) error
	E func(E0) error
	P func(P0) error
}

// Run executes one process per role concurrently over net and returns the
// first error; on error the network is torn down so sibling processes
// blocked on messages that will never arrive fail promptly.
func Run(net *session.Network, p Procs) error {
	if p.D == nil {
		return genrt.MissingProc(RoleD)
	}
	if p.E == nil {
		return genrt.MissingProc(RoleE)
	}
	if p.P == nil {
		return genrt.MissingProc(RoleP)
	}
	r := genrt.NewRunner(net)
	r.Go(RoleD, func() error { return RunD(net, p.D) })
	r.Go(RoleE, func() error { return RunE(net, p.E) })
	r.Go(RoleP, func() error { return RunP(net, p.P) })
	return r.Wait()
}

// ---- role d ----
//
// Verified machine: mu x0.e?{open.e!{done.x0}}

// dEp is role d's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type dEp struct {
	c     *genrt.Core
	sendE session.UncheckedSend
	recvE session.UncheckedRecv
}

func newDEp(c *genrt.Core) (*dEp, error) {
	ep := &dEp{c: c}
	var err error
	if ep.sendE, err = c.U().To(RoleE); err != nil {
		return nil, err
	}
	if ep.recvE, err = c.U().From(RoleE); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunD runs f as role d on net with exclusive endpoint ownership. The
// protocol is infinite (no terminal state is reachable), so completion
// cannot be witnessed: f stops deliberately by returning, and callers bound
// iteration counts so all roles stop consistently.
func RunD(net *session.Network, f func(D0) error) error {
	return genrt.Session(net, RoleD, func(c *genrt.Core) error {
		ep, err := newDEp(c)
		if err != nil {
			return err
		}
		return f(D0{ep: ep, st: c.Init()})
	})
}

// D0 is role d's protocol state 0: e?open → state 2.
//
//sessgen:state
type D0 struct {
	ep *dEp
	st genrt.St
}

// RecvOpen receives e?open from e, consuming the state and returning the next one.
func (s D0) RecvOpen() (D2, error) {
	_, st, err := genrt.Recv(s.st, "elevator.D0", s.ep.recvE, RoleE, LabelOpen, genrt.Signal)
	if err != nil {
		return D2{}, err
	}
	return D2{ep: s.ep, st: st}, nil
}

// TryRecvOpen is the non-blocking RecvOpen: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s D0) TryRecvOpen() (D2, error) {
	_, st, err := genrt.TryRecv(s.st, "elevator.D0", s.ep.recvE, RoleE, LabelOpen, genrt.Signal)
	if err != nil {
		return D2{}, err
	}
	return D2{ep: s.ep, st: st}, nil
}

// D2 is role d's protocol state 2: e!done → state 0.
//
//sessgen:state
type D2 struct {
	ep *dEp
	st genrt.St
}

// SendDone sends e!done to e, consuming the state and returning the next one.
func (s D2) SendDone() (D0, error) {
	st, err := genrt.Send(s.st, "elevator.D2", s.ep.sendE, LabelDone, nil)
	if err != nil {
		return D0{}, err
	}
	return D0{ep: s.ep, st: st}, nil
}

// TrySendDone is the non-blocking SendDone: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s D2) TrySendDone() (D0, error) {
	st, err := genrt.TrySend(s.st, "elevator.D2", s.ep.sendE, LabelDone, nil)
	if err != nil {
		return D0{}, err
	}
	return D0{ep: s.ep, st: st}, nil
}

// ---- role e ----
//
// Verified machine: mu x0.p?{up.d!{open.d?{done.x0}}, down.d!{open.d?{done.x0}}}

// eEp is role e's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type eEp struct {
	c     *genrt.Core
	sendD session.UncheckedSend
	recvD session.UncheckedRecv
	recvP session.UncheckedRecv
}

func newEEp(c *genrt.Core) (*eEp, error) {
	ep := &eEp{c: c}
	var err error
	if ep.sendD, err = c.U().To(RoleD); err != nil {
		return nil, err
	}
	if ep.recvD, err = c.U().From(RoleD); err != nil {
		return nil, err
	}
	if ep.recvP, err = c.U().From(RoleP); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunE runs f as role e on net with exclusive endpoint ownership. The
// protocol is infinite (no terminal state is reachable), so completion
// cannot be witnessed: f stops deliberately by returning, and callers bound
// iteration counts so all roles stop consistently.
func RunE(net *session.Network, f func(E0) error) error {
	return genrt.Session(net, RoleE, func(c *genrt.Core) error {
		ep, err := newEEp(c)
		if err != nil {
			return err
		}
		return f(E0{ep: ep, st: c.Init()})
	})
}

// E0 is role e's protocol state 0: p?up → state 2, p?down → state 4.
//
//sessgen:state
type E0 struct {
	ep *eEp
	st genrt.St
}

// E0Branch is the one-shot outcome of E0.Branch: exactly one case is live,
// discriminated by Label; the continuations of the cases not taken are
// permanently consumed (driving them fails with genrt.ErrStateConsumed).
//
//sessgen:branch
type E0Branch struct {
	// Label is the received label, selecting the live case.
	Label types.Label
	// UpNext is live when Label == LabelUp.
	UpNext E2
	// DownNext is live when Label == LabelDown.
	DownNext E4
}

// Branch receives the next message from p and returns the branch it
// selects, consuming the state.
func (s E0) Branch() (E0Branch, error) {
	label, _, st, err := genrt.Branch(s.st, "elevator.E0", s.ep.recvP)
	if err != nil {
		return E0Branch{}, err
	}
	b := E0Branch{Label: label}
	switch label {
	case LabelUp:
		b.UpNext = E2{ep: s.ep, st: st}
	case LabelDown:
		b.DownNext = E4{ep: s.ep, st: st}
	default:
		return E0Branch{}, genrt.Unexpected(RoleE, "E0", RoleP, label)
	}
	return b, nil
}

// TryBranch is the non-blocking Branch: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s E0) TryBranch() (E0Branch, error) {
	label, _, st, err := genrt.TryBranch(s.st, "elevator.E0", s.ep.recvP)
	if err != nil {
		return E0Branch{}, err
	}
	b := E0Branch{Label: label}
	switch label {
	case LabelUp:
		b.UpNext = E2{ep: s.ep, st: st}
	case LabelDown:
		b.DownNext = E4{ep: s.ep, st: st}
	default:
		return E0Branch{}, genrt.Unexpected(RoleE, "E0", RoleP, label)
	}
	return b, nil
}

// E2 is role e's protocol state 2: d!open → state 3.
//
//sessgen:state
type E2 struct {
	ep *eEp
	st genrt.St
}

// SendOpen sends d!open to d, consuming the state and returning the next one.
func (s E2) SendOpen() (E3, error) {
	st, err := genrt.Send(s.st, "elevator.E2", s.ep.sendD, LabelOpen, nil)
	if err != nil {
		return E3{}, err
	}
	return E3{ep: s.ep, st: st}, nil
}

// TrySendOpen is the non-blocking SendOpen: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s E2) TrySendOpen() (E3, error) {
	st, err := genrt.TrySend(s.st, "elevator.E2", s.ep.sendD, LabelOpen, nil)
	if err != nil {
		return E3{}, err
	}
	return E3{ep: s.ep, st: st}, nil
}

// E3 is role e's protocol state 3: d?done → state 0.
//
//sessgen:state
type E3 struct {
	ep *eEp
	st genrt.St
}

// RecvDone receives d?done from d, consuming the state and returning the next one.
func (s E3) RecvDone() (E0, error) {
	_, st, err := genrt.Recv(s.st, "elevator.E3", s.ep.recvD, RoleD, LabelDone, genrt.Signal)
	if err != nil {
		return E0{}, err
	}
	return E0{ep: s.ep, st: st}, nil
}

// TryRecvDone is the non-blocking RecvDone: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s E3) TryRecvDone() (E0, error) {
	_, st, err := genrt.TryRecv(s.st, "elevator.E3", s.ep.recvD, RoleD, LabelDone, genrt.Signal)
	if err != nil {
		return E0{}, err
	}
	return E0{ep: s.ep, st: st}, nil
}

// E4 is role e's protocol state 4: d!open → state 5.
//
//sessgen:state
type E4 struct {
	ep *eEp
	st genrt.St
}

// SendOpen sends d!open to d, consuming the state and returning the next one.
func (s E4) SendOpen() (E5, error) {
	st, err := genrt.Send(s.st, "elevator.E4", s.ep.sendD, LabelOpen, nil)
	if err != nil {
		return E5{}, err
	}
	return E5{ep: s.ep, st: st}, nil
}

// TrySendOpen is the non-blocking SendOpen: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s E4) TrySendOpen() (E5, error) {
	st, err := genrt.TrySend(s.st, "elevator.E4", s.ep.sendD, LabelOpen, nil)
	if err != nil {
		return E5{}, err
	}
	return E5{ep: s.ep, st: st}, nil
}

// E5 is role e's protocol state 5: d?done → state 0.
//
//sessgen:state
type E5 struct {
	ep *eEp
	st genrt.St
}

// RecvDone receives d?done from d, consuming the state and returning the next one.
func (s E5) RecvDone() (E0, error) {
	_, st, err := genrt.Recv(s.st, "elevator.E5", s.ep.recvD, RoleD, LabelDone, genrt.Signal)
	if err != nil {
		return E0{}, err
	}
	return E0{ep: s.ep, st: st}, nil
}

// TryRecvDone is the non-blocking RecvDone: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s E5) TryRecvDone() (E0, error) {
	_, st, err := genrt.TryRecv(s.st, "elevator.E5", s.ep.recvD, RoleD, LabelDone, genrt.Signal)
	if err != nil {
		return E0{}, err
	}
	return E0{ep: s.ep, st: st}, nil
}

// ---- role p ----
//
// Verified machine: mu x0.e!{up.x0, down.x0}

// pEp is role p's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type pEp struct {
	c     *genrt.Core
	sendE session.UncheckedSend
}

func newPEp(c *genrt.Core) (*pEp, error) {
	ep := &pEp{c: c}
	var err error
	if ep.sendE, err = c.U().To(RoleE); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunP runs f as role p on net with exclusive endpoint ownership. The
// protocol is infinite (no terminal state is reachable), so completion
// cannot be witnessed: f stops deliberately by returning, and callers bound
// iteration counts so all roles stop consistently.
func RunP(net *session.Network, f func(P0) error) error {
	return genrt.Session(net, RoleP, func(c *genrt.Core) error {
		ep, err := newPEp(c)
		if err != nil {
			return err
		}
		return f(P0{ep: ep, st: c.Init()})
	})
}

// P0 is role p's protocol state 0: e!up → state 0, e!down → state 0.
//
//sessgen:state
type P0 struct {
	ep *pEp
	st genrt.St
}

// SendUp sends e!up to e, consuming the state and returning the next one.
func (s P0) SendUp() (P0, error) {
	st, err := genrt.Send(s.st, "elevator.P0", s.ep.sendE, LabelUp, nil)
	if err != nil {
		return P0{}, err
	}
	return P0{ep: s.ep, st: st}, nil
}

// TrySendUp is the non-blocking SendUp: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s P0) TrySendUp() (P0, error) {
	st, err := genrt.TrySend(s.st, "elevator.P0", s.ep.sendE, LabelUp, nil)
	if err != nil {
		return P0{}, err
	}
	return P0{ep: s.ep, st: st}, nil
}

// SendDown sends e!down to e, consuming the state and returning the next one.
func (s P0) SendDown() (P0, error) {
	st, err := genrt.Send(s.st, "elevator.P0", s.ep.sendE, LabelDown, nil)
	if err != nil {
		return P0{}, err
	}
	return P0{ep: s.ep, st: st}, nil
}

// TrySendDown is the non-blocking SendDown: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s P0) TrySendDown() (P0, error) {
	st, err := genrt.TrySend(s.st, "elevator.P0", s.ep.sendE, LabelDown, nil)
	if err != nil {
		return P0{}, err
	}
	return P0{ep: s.ep, st: st}, nil
}
