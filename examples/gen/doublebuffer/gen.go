// Code generated by sessgen (internal/codegen) from protocol "Double Buffering", optimised=none. DO NOT EDIT.

package doublebuffer

import (
	"repro/internal/codegen/genrt"
	"repro/internal/session"
	"repro/internal/types"
)

// Message labels of the protocol.
const (
	LabelReady types.Label = "ready"
	LabelValue types.Label = "value"
)

// Participants of the protocol.
const (
	RoleK types.Role = "k"
	RoleS types.Role = "s"
	RoleT types.Role = "t"
)

// Roles returns the participants in deterministic order.
func Roles() []types.Role {
	return []types.Role{RoleK, RoleS, RoleT}
}

// NewNetwork returns a network over the protocol's roles on the default
// (unbounded lock-free ring) substrate.
func NewNetwork() *session.Network {
	return session.NewNetwork(Roles()...)
}

// Procs is one process per role, for Run.
type Procs struct {
	K func(K0) error
	S func(S0) error
	T func(T0) error
}

// Run executes one process per role concurrently over net and returns the
// first error; on error the network is torn down so sibling processes
// blocked on messages that will never arrive fail promptly.
func Run(net *session.Network, p Procs) error {
	if p.K == nil {
		return genrt.MissingProc(RoleK)
	}
	if p.S == nil {
		return genrt.MissingProc(RoleS)
	}
	if p.T == nil {
		return genrt.MissingProc(RoleT)
	}
	r := genrt.NewRunner(net)
	r.Go(RoleK, func() error { return RunK(net, p.K) })
	r.Go(RoleS, func() error { return RunS(net, p.S) })
	r.Go(RoleT, func() error { return RunT(net, p.T) })
	return r.Wait()
}

// ---- role k ----
//
// Verified machine: mu x0.s!{ready.s?{value.t?{ready.t!{value.x0}}}}

// kEp is role k's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type kEp struct {
	c     *genrt.Core
	sendS session.UncheckedSend
	sendT session.UncheckedSend
	recvS session.UncheckedRecv
	recvT session.UncheckedRecv
}

func newKEp(c *genrt.Core) (*kEp, error) {
	ep := &kEp{c: c}
	var err error
	if ep.sendS, err = c.U().To(RoleS); err != nil {
		return nil, err
	}
	if ep.sendT, err = c.U().To(RoleT); err != nil {
		return nil, err
	}
	if ep.recvS, err = c.U().From(RoleS); err != nil {
		return nil, err
	}
	if ep.recvT, err = c.U().From(RoleT); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunK runs f as role k on net with exclusive endpoint ownership. The
// protocol is infinite (no terminal state is reachable), so completion
// cannot be witnessed: f stops deliberately by returning, and callers bound
// iteration counts so all roles stop consistently.
func RunK(net *session.Network, f func(K0) error) error {
	return genrt.Session(net, RoleK, func(c *genrt.Core) error {
		ep, err := newKEp(c)
		if err != nil {
			return err
		}
		return f(K0{ep: ep, st: c.Init()})
	})
}

// K0 is role k's protocol state 0: s!ready → state 2.
//
//sessgen:state
type K0 struct {
	ep *kEp
	st genrt.St
}

// SendReady sends s!ready to s, consuming the state and returning the next one.
func (s K0) SendReady() (K2, error) {
	st, err := genrt.Send(s.st, "doublebuffer.K0", s.ep.sendS, LabelReady, nil)
	if err != nil {
		return K2{}, err
	}
	return K2{ep: s.ep, st: st}, nil
}

// TrySendReady is the non-blocking SendReady: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s K0) TrySendReady() (K2, error) {
	st, err := genrt.TrySend(s.st, "doublebuffer.K0", s.ep.sendS, LabelReady, nil)
	if err != nil {
		return K2{}, err
	}
	return K2{ep: s.ep, st: st}, nil
}

// K2 is role k's protocol state 2: s?value → state 3.
//
//sessgen:state
type K2 struct {
	ep *kEp
	st genrt.St
}

// RecvValue receives s?value from s, consuming the state and returning the next one.
func (s K2) RecvValue() (K3, error) {
	_, st, err := genrt.Recv(s.st, "doublebuffer.K2", s.ep.recvS, RoleS, LabelValue, genrt.Signal)
	if err != nil {
		return K3{}, err
	}
	return K3{ep: s.ep, st: st}, nil
}

// TryRecvValue is the non-blocking RecvValue: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s K2) TryRecvValue() (K3, error) {
	_, st, err := genrt.TryRecv(s.st, "doublebuffer.K2", s.ep.recvS, RoleS, LabelValue, genrt.Signal)
	if err != nil {
		return K3{}, err
	}
	return K3{ep: s.ep, st: st}, nil
}

// K3 is role k's protocol state 3: t?ready → state 4.
//
//sessgen:state
type K3 struct {
	ep *kEp
	st genrt.St
}

// RecvReady receives t?ready from t, consuming the state and returning the next one.
func (s K3) RecvReady() (K4, error) {
	_, st, err := genrt.Recv(s.st, "doublebuffer.K3", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return K4{}, err
	}
	return K4{ep: s.ep, st: st}, nil
}

// TryRecvReady is the non-blocking RecvReady: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s K3) TryRecvReady() (K4, error) {
	_, st, err := genrt.TryRecv(s.st, "doublebuffer.K3", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return K4{}, err
	}
	return K4{ep: s.ep, st: st}, nil
}

// K4 is role k's protocol state 4: t!value → state 0.
//
//sessgen:state
type K4 struct {
	ep *kEp
	st genrt.St
}

// SendValue sends t!value to t, consuming the state and returning the next one.
func (s K4) SendValue() (K0, error) {
	st, err := genrt.Send(s.st, "doublebuffer.K4", s.ep.sendT, LabelValue, nil)
	if err != nil {
		return K0{}, err
	}
	return K0{ep: s.ep, st: st}, nil
}

// TrySendValue is the non-blocking SendValue: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s K4) TrySendValue() (K0, error) {
	st, err := genrt.TrySend(s.st, "doublebuffer.K4", s.ep.sendT, LabelValue, nil)
	if err != nil {
		return K0{}, err
	}
	return K0{ep: s.ep, st: st}, nil
}

// ---- role s ----
//
// Verified machine: mu x0.k?{ready.k!{value.x0}}

// sEp is role s's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type sEp struct {
	c     *genrt.Core
	sendK session.UncheckedSend
	recvK session.UncheckedRecv
}

func newSEp(c *genrt.Core) (*sEp, error) {
	ep := &sEp{c: c}
	var err error
	if ep.sendK, err = c.U().To(RoleK); err != nil {
		return nil, err
	}
	if ep.recvK, err = c.U().From(RoleK); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunS runs f as role s on net with exclusive endpoint ownership. The
// protocol is infinite (no terminal state is reachable), so completion
// cannot be witnessed: f stops deliberately by returning, and callers bound
// iteration counts so all roles stop consistently.
func RunS(net *session.Network, f func(S0) error) error {
	return genrt.Session(net, RoleS, func(c *genrt.Core) error {
		ep, err := newSEp(c)
		if err != nil {
			return err
		}
		return f(S0{ep: ep, st: c.Init()})
	})
}

// S0 is role s's protocol state 0: k?ready → state 2.
//
//sessgen:state
type S0 struct {
	ep *sEp
	st genrt.St
}

// RecvReady receives k?ready from k, consuming the state and returning the next one.
func (s S0) RecvReady() (S2, error) {
	_, st, err := genrt.Recv(s.st, "doublebuffer.S0", s.ep.recvK, RoleK, LabelReady, genrt.Signal)
	if err != nil {
		return S2{}, err
	}
	return S2{ep: s.ep, st: st}, nil
}

// TryRecvReady is the non-blocking RecvReady: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s S0) TryRecvReady() (S2, error) {
	_, st, err := genrt.TryRecv(s.st, "doublebuffer.S0", s.ep.recvK, RoleK, LabelReady, genrt.Signal)
	if err != nil {
		return S2{}, err
	}
	return S2{ep: s.ep, st: st}, nil
}

// S2 is role s's protocol state 2: k!value → state 0.
//
//sessgen:state
type S2 struct {
	ep *sEp
	st genrt.St
}

// SendValue sends k!value to k, consuming the state and returning the next one.
func (s S2) SendValue() (S0, error) {
	st, err := genrt.Send(s.st, "doublebuffer.S2", s.ep.sendK, LabelValue, nil)
	if err != nil {
		return S0{}, err
	}
	return S0{ep: s.ep, st: st}, nil
}

// TrySendValue is the non-blocking SendValue: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s S2) TrySendValue() (S0, error) {
	st, err := genrt.TrySend(s.st, "doublebuffer.S2", s.ep.sendK, LabelValue, nil)
	if err != nil {
		return S0{}, err
	}
	return S0{ep: s.ep, st: st}, nil
}

// ---- role t ----
//
// Verified machine: mu x0.k!{ready.k?{value.x0}}

// tEp is role t's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type tEp struct {
	c     *genrt.Core
	sendK session.UncheckedSend
	recvK session.UncheckedRecv
}

func newTEp(c *genrt.Core) (*tEp, error) {
	ep := &tEp{c: c}
	var err error
	if ep.sendK, err = c.U().To(RoleK); err != nil {
		return nil, err
	}
	if ep.recvK, err = c.U().From(RoleK); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunT runs f as role t on net with exclusive endpoint ownership. The
// protocol is infinite (no terminal state is reachable), so completion
// cannot be witnessed: f stops deliberately by returning, and callers bound
// iteration counts so all roles stop consistently.
func RunT(net *session.Network, f func(T0) error) error {
	return genrt.Session(net, RoleT, func(c *genrt.Core) error {
		ep, err := newTEp(c)
		if err != nil {
			return err
		}
		return f(T0{ep: ep, st: c.Init()})
	})
}

// T0 is role t's protocol state 0: k!ready → state 2.
//
//sessgen:state
type T0 struct {
	ep *tEp
	st genrt.St
}

// SendReady sends k!ready to k, consuming the state and returning the next one.
func (s T0) SendReady() (T2, error) {
	st, err := genrt.Send(s.st, "doublebuffer.T0", s.ep.sendK, LabelReady, nil)
	if err != nil {
		return T2{}, err
	}
	return T2{ep: s.ep, st: st}, nil
}

// TrySendReady is the non-blocking SendReady: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s T0) TrySendReady() (T2, error) {
	st, err := genrt.TrySend(s.st, "doublebuffer.T0", s.ep.sendK, LabelReady, nil)
	if err != nil {
		return T2{}, err
	}
	return T2{ep: s.ep, st: st}, nil
}

// T2 is role t's protocol state 2: k?value → state 0.
//
//sessgen:state
type T2 struct {
	ep *tEp
	st genrt.St
}

// RecvValue receives k?value from k, consuming the state and returning the next one.
func (s T2) RecvValue() (T0, error) {
	_, st, err := genrt.Recv(s.st, "doublebuffer.T2", s.ep.recvK, RoleK, LabelValue, genrt.Signal)
	if err != nil {
		return T0{}, err
	}
	return T0{ep: s.ep, st: st}, nil
}

// TryRecvValue is the non-blocking RecvValue: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s T2) TryRecvValue() (T0, error) {
	_, st, err := genrt.TryRecv(s.st, "doublebuffer.T2", s.ep.recvK, RoleK, LabelValue, genrt.Signal)
	if err != nil {
		return T0{}, err
	}
	return T0{ep: s.ep, st: st}, nil
}
