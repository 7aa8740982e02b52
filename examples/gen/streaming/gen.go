// Code generated by sessgen (internal/codegen) from protocol "Streaming", optimised=auto. DO NOT EDIT.

package streaming

import (
	"repro/internal/codegen/genrt"
	"repro/internal/session"
	"repro/internal/types"
)

// Message labels of the protocol.
const (
	LabelReady types.Label = "ready"
	LabelStop  types.Label = "stop"
	LabelValue types.Label = "value"
)

// Participants of the protocol.
const (
	RoleS types.Role = "s"
	RoleT types.Role = "t"
)

// Roles returns the participants in deterministic order.
func Roles() []types.Role {
	return []types.Role{RoleS, RoleT}
}

// NewNetwork returns a network over the protocol's roles on the default
// (unbounded lock-free ring) substrate.
func NewNetwork() *session.Network {
	return session.NewNetwork(Roles()...)
}

// Procs is one process per role, for Run.
type Procs struct {
	S func(S0) (SEnd, error)
	T func(T0) (TEnd, error)
}

// Run executes one process per role concurrently over net and returns the
// first error; on error the network is torn down so sibling processes
// blocked on messages that will never arrive fail promptly.
func Run(net *session.Network, p Procs) error {
	if p.S == nil {
		return genrt.MissingProc(RoleS)
	}
	if p.T == nil {
		return genrt.MissingProc(RoleT)
	}
	r := genrt.NewRunner(net)
	r.Go(RoleS, func() error { return RunS(net, p.S) })
	r.Go(RoleT, func() error { return RunT(net, p.T) })
	return r.Wait()
}

// ---- role s ----
//
// Verified machine: t!{value(i32).t!{value(i32).mu x0.t!{value(i32).t?{ready.x0}, stop.t?{ready.t?{ready.t?{ready.end}}}}}}

// sEp is role s's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type sEp struct {
	c     *genrt.Core
	sendT session.UncheckedSend
	recvT session.UncheckedRecv
}

func newSEp(c *genrt.Core) (*sEp, error) {
	ep := &sEp{c: c}
	var err error
	if ep.sendT, err = c.U().To(RoleT); err != nil {
		return nil, err
	}
	if ep.recvT, err = c.U().From(RoleT); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunS runs f as role s on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunS(net *session.Network, f func(S0) (SEnd, error)) error {
	return genrt.Session(net, RoleS, func(c *genrt.Core) error {
		ep, err := newSEp(c)
		if err != nil {
			return err
		}
		end, err := f(S0{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// SEnd is role s's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunS.
type SEnd struct {
	ep *sEp
	st genrt.St
}

// S0 is role s's protocol state 0: t!value(i32) → state 1.
//
//sessgen:state
type S0 struct {
	ep *sEp
	st genrt.St
}

// SendValue sends t!value(i32) to t, consuming the state and returning the next one.
func (s S0) SendValue(payload int32) (S1, error) {
	st, err := genrt.Send(s.st, "streaming.S0", s.ep.sendT, LabelValue, payload)
	if err != nil {
		return S1{}, err
	}
	return S1{ep: s.ep, st: st}, nil
}

// TrySendValue is the non-blocking SendValue: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s S0) TrySendValue(payload int32) (S1, error) {
	st, err := genrt.TrySend(s.st, "streaming.S0", s.ep.sendT, LabelValue, payload)
	if err != nil {
		return S1{}, err
	}
	return S1{ep: s.ep, st: st}, nil
}

// S1 is role s's protocol state 1: t!value(i32) → state 2.
//
//sessgen:state
type S1 struct {
	ep *sEp
	st genrt.St
}

// SendValue sends t!value(i32) to t, consuming the state and returning the next one.
func (s S1) SendValue(payload int32) (S2, error) {
	st, err := genrt.Send(s.st, "streaming.S1", s.ep.sendT, LabelValue, payload)
	if err != nil {
		return S2{}, err
	}
	return S2{ep: s.ep, st: st}, nil
}

// TrySendValue is the non-blocking SendValue: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s S1) TrySendValue(payload int32) (S2, error) {
	st, err := genrt.TrySend(s.st, "streaming.S1", s.ep.sendT, LabelValue, payload)
	if err != nil {
		return S2{}, err
	}
	return S2{ep: s.ep, st: st}, nil
}

// S2 is role s's protocol state 2: t!value(i32) → state 4, t!stop → state 5.
//
//sessgen:state
type S2 struct {
	ep *sEp
	st genrt.St
}

// SendValue sends t!value(i32) to t, consuming the state and returning the next one.
func (s S2) SendValue(payload int32) (S4, error) {
	st, err := genrt.Send(s.st, "streaming.S2", s.ep.sendT, LabelValue, payload)
	if err != nil {
		return S4{}, err
	}
	return S4{ep: s.ep, st: st}, nil
}

// TrySendValue is the non-blocking SendValue: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s S2) TrySendValue(payload int32) (S4, error) {
	st, err := genrt.TrySend(s.st, "streaming.S2", s.ep.sendT, LabelValue, payload)
	if err != nil {
		return S4{}, err
	}
	return S4{ep: s.ep, st: st}, nil
}

// SendStop sends t!stop to t, consuming the state and returning the next one.
func (s S2) SendStop() (S5, error) {
	st, err := genrt.Send(s.st, "streaming.S2", s.ep.sendT, LabelStop, nil)
	if err != nil {
		return S5{}, err
	}
	return S5{ep: s.ep, st: st}, nil
}

// TrySendStop is the non-blocking SendStop: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s S2) TrySendStop() (S5, error) {
	st, err := genrt.TrySend(s.st, "streaming.S2", s.ep.sendT, LabelStop, nil)
	if err != nil {
		return S5{}, err
	}
	return S5{ep: s.ep, st: st}, nil
}

// S4 is role s's protocol state 4: t?ready → state 2.
//
//sessgen:state
type S4 struct {
	ep *sEp
	st genrt.St
}

// RecvReady receives t?ready from t, consuming the state and returning the next one.
func (s S4) RecvReady() (S2, error) {
	_, st, err := genrt.Recv(s.st, "streaming.S4", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return S2{}, err
	}
	return S2{ep: s.ep, st: st}, nil
}

// TryRecvReady is the non-blocking RecvReady: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s S4) TryRecvReady() (S2, error) {
	_, st, err := genrt.TryRecv(s.st, "streaming.S4", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return S2{}, err
	}
	return S2{ep: s.ep, st: st}, nil
}

// S5 is role s's protocol state 5: t?ready → state 6.
//
//sessgen:state
type S5 struct {
	ep *sEp
	st genrt.St
}

// RecvReady receives t?ready from t, consuming the state and returning the next one.
func (s S5) RecvReady() (S6, error) {
	_, st, err := genrt.Recv(s.st, "streaming.S5", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return S6{}, err
	}
	return S6{ep: s.ep, st: st}, nil
}

// TryRecvReady is the non-blocking RecvReady: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s S5) TryRecvReady() (S6, error) {
	_, st, err := genrt.TryRecv(s.st, "streaming.S5", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return S6{}, err
	}
	return S6{ep: s.ep, st: st}, nil
}

// S6 is role s's protocol state 6: t?ready → state 7.
//
//sessgen:state
type S6 struct {
	ep *sEp
	st genrt.St
}

// RecvReady receives t?ready from t, consuming the state and returning the next one.
func (s S6) RecvReady() (S7, error) {
	_, st, err := genrt.Recv(s.st, "streaming.S6", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return S7{}, err
	}
	return S7{ep: s.ep, st: st}, nil
}

// TryRecvReady is the non-blocking RecvReady: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s S6) TryRecvReady() (S7, error) {
	_, st, err := genrt.TryRecv(s.st, "streaming.S6", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return S7{}, err
	}
	return S7{ep: s.ep, st: st}, nil
}

// S7 is role s's protocol state 7: t?ready → state 8.
//
//sessgen:state
type S7 struct {
	ep *sEp
	st genrt.St
}

// RecvReady receives t?ready from t, consuming the state and returning the next one.
func (s S7) RecvReady() (SEnd, error) {
	_, st, err := genrt.Recv(s.st, "streaming.S7", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return SEnd{}, err
	}
	return SEnd{ep: s.ep, st: st}, nil
}

// TryRecvReady is the non-blocking RecvReady: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s S7) TryRecvReady() (SEnd, error) {
	_, st, err := genrt.TryRecv(s.st, "streaming.S7", s.ep.recvT, RoleT, LabelReady, genrt.Signal)
	if err != nil {
		return SEnd{}, err
	}
	return SEnd{ep: s.ep, st: st}, nil
}

// ---- role t ----
//
// Verified machine: mu x0.s!{ready.s?{value(i32).x0, stop.end}}

// tEp is role t's session core: the shared one-shot stamp counter and the
// pre-resolved monitor-free routes.
type tEp struct {
	c     *genrt.Core
	sendS session.UncheckedSend
	recvS session.UncheckedRecv
}

func newTEp(c *genrt.Core) (*tEp, error) {
	ep := &tEp{c: c}
	var err error
	if ep.sendS, err = c.U().To(RoleS); err != nil {
		return nil, err
	}
	if ep.recvS, err = c.U().From(RoleS); err != nil {
		return nil, err
	}
	return ep, nil
}

// RunT runs f as role t on net with exclusive endpoint ownership. f is
// handed the initial state and must return the End value: completion of the
// protocol is witnessed by the live terminal state, not assumed.
func RunT(net *session.Network, f func(T0) (TEnd, error)) error {
	return genrt.Session(net, RoleT, func(c *genrt.Core) error {
		ep, err := newTEp(c)
		if err != nil {
			return err
		}
		end, err := f(T0{ep: ep, st: c.Init()})
		if err != nil {
			return err
		}
		return genrt.Finish(c, end.st)
	})
}

// TEnd is role t's terminal state: obtaining it is only possible by
// driving the session to completion, and returning it from the process
// witnesses that completion to RunT.
type TEnd struct {
	ep *tEp
	st genrt.St
}

// T0 is role t's protocol state 0: s!ready → state 2.
//
//sessgen:state
type T0 struct {
	ep *tEp
	st genrt.St
}

// SendReady sends s!ready to s, consuming the state and returning the next one.
func (s T0) SendReady() (T2, error) {
	st, err := genrt.Send(s.st, "streaming.T0", s.ep.sendS, LabelReady, nil)
	if err != nil {
		return T2{}, err
	}
	return T2{ep: s.ep, st: st}, nil
}

// TrySendReady is the non-blocking SendReady: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when the outgoing route is full.
func (s T0) TrySendReady() (T2, error) {
	st, err := genrt.TrySend(s.st, "streaming.T0", s.ep.sendS, LabelReady, nil)
	if err != nil {
		return T2{}, err
	}
	return T2{ep: s.ep, st: st}, nil
}

// T2 is role t's protocol state 2: s?value(i32) → state 0, s?stop → state 3.
//
//sessgen:state
type T2 struct {
	ep *tEp
	st genrt.St
}

// T2Branch is the one-shot outcome of T2.Branch: exactly one case is live,
// discriminated by Label; the continuations of the cases not taken are
// permanently consumed (driving them fails with genrt.ErrStateConsumed).
//
//sessgen:branch
type T2Branch struct {
	// Label is the received label, selecting the live case.
	Label types.Label
	// ValuePayload and ValueNext are live when Label == LabelValue.
	ValuePayload int32
	ValueNext    T0
	// StopNext is live when Label == LabelStop.
	StopNext TEnd
}

// Branch receives the next message from s and returns the branch it
// selects, consuming the state.
func (s T2) Branch() (T2Branch, error) {
	label, v, st, err := genrt.Branch(s.st, "streaming.T2", s.ep.recvS)
	if err != nil {
		return T2Branch{}, err
	}
	b := T2Branch{Label: label}
	switch label {
	case LabelValue:
		if b.ValuePayload, err = genrt.I32(v); err != nil {
			return T2Branch{}, err
		}
		b.ValueNext = T0{ep: s.ep, st: st}
	case LabelStop:
		b.StopNext = TEnd{ep: s.ep, st: st}
	default:
		return T2Branch{}, genrt.Unexpected(RoleT, "T2", RoleS, label)
	}
	return b, nil
}

// TryBranch is the non-blocking Branch: it returns session.ErrWouldBlock —
// leaving the state live for a retry — when no message has arrived yet.
func (s T2) TryBranch() (T2Branch, error) {
	label, v, st, err := genrt.TryBranch(s.st, "streaming.T2", s.ep.recvS)
	if err != nil {
		return T2Branch{}, err
	}
	b := T2Branch{Label: label}
	switch label {
	case LabelValue:
		if b.ValuePayload, err = genrt.I32(v); err != nil {
			return T2Branch{}, err
		}
		b.ValueNext = T0{ep: s.ep, st: st}
	case LabelStop:
		b.StopNext = TEnd{ep: s.ep, st: st}
	default:
		return T2Branch{}, genrt.Unexpected(RoleT, "T2", RoleS, label)
	}
	return b, nil
}
