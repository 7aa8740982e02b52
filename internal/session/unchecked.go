package session

import (
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/fsm"
	"repro/internal/types"
)

// This file is the monitor-free fast path underneath the generated
// state-pattern APIs of internal/codegen. Where the Rust framework's types
// make protocol violations unrepresentable — so its runtime performs no
// conformance check at all — the packages emitted by sessgen encode the
// verified FSM in the Go type system (one struct per state, methods per
// transition) and therefore do not need the Monitor either: every action a
// generated state value can perform is, by construction, a transition of the
// verified machine. The primitives below skip the monitor entirely; what
// remains on the hot path is the route lookup and the substrate operation.
//
// They are deliberately unexported. Handing an unchecked face to arbitrary
// code would reopen the gap the monitor closes, so the only way out of this
// package is UncheckedForCodegen, whose name makes any misuse glaring in
// review; the supported consumer is internal/codegen/genrt, the runtime
// support library that generated packages drive. See DESIGN.md ("The three
// API tiers").

// Unchecked is the monitor-free face of an endpoint: the route-bound
// senders and receivers it hands out (To, From) hit the substrate directly,
// with no FSM step and no sort check. Conformance must be guaranteed by the
// caller's construction; linearity is still the endpoint owner's
// responsibility. It exists for code whose conformance is correct by
// construction — the state-pattern packages emitted by internal/codegen —
// and is obtained only through UncheckedForCodegen.
type Unchecked struct {
	e *Endpoint
}

// UncheckedForCodegen returns the unchecked face of e. It is the codegen
// hook: the one sanctioned consumer is internal/codegen/genrt, on behalf of
// packages emitted by cmd/sessgen, where the generated types already enforce
// the protocol. Calling it from hand-written application code forfeits the
// runtime's conformance guarantee — use a monitored Session endpoint there.
func UncheckedForCodegen(e *Endpoint) Unchecked { return Unchecked{e: e} }

// To resolves the route towards a peer once, returning a bound sender: the
// per-transition face generated code caches at session start so the steady
// state pays no role lookup at all — just the substrate's Send.
func (u Unchecked) To(peer types.Role) (UncheckedSend, error) {
	q, err := u.e.peerRoute(fsm.Send, peer)
	if err != nil {
		return UncheckedSend{}, err
	}
	return UncheckedSend{q: q}, nil
}

// From resolves the route from a peer once, symmetric to To.
func (u Unchecked) From(peer types.Role) (UncheckedRecv, error) {
	q, err := u.e.peerRoute(fsm.Recv, peer)
	if err != nil {
		return UncheckedRecv{}, err
	}
	return UncheckedRecv{q: q}, nil
}

// UncheckedSend is a route-bound, monitor-free sender. The zero value is not
// usable; obtain one from Unchecked.To.
type UncheckedSend struct {
	q channel.Sender
}

// Send delivers label(value) on the bound route.
func (s UncheckedSend) Send(label types.Label, value any) error {
	if s.q == nil {
		return fmt.Errorf("session: Send on zero UncheckedSend")
	}
	return channel.Send(s.q, channel.Message{Label: label, Value: value}, time.Time{})
}

// TrySend delivers label(value) on the bound route if it has room, and
// returns ErrWouldBlock — with no effect — when it is full. This is the
// monitor-free leg of the non-blocking algebra: the generated Try* methods
// (internal/codegen) call it so a scheduler can step generated sessions
// instead of parking goroutines.
func (s UncheckedSend) TrySend(label types.Label, value any) error {
	if s.q == nil {
		return fmt.Errorf("session: TrySend on zero UncheckedSend")
	}
	ok, err := s.q.TrySend(channel.Message{Label: label, Value: value})
	if err != nil {
		return err
	}
	if !ok {
		return ErrWouldBlock
	}
	return nil
}

// UncheckedRecv is a route-bound, monitor-free receiver. The zero value is
// not usable; obtain one from Unchecked.From.
type UncheckedRecv struct {
	q channel.Receiver
}

// Recv returns the next message on the bound route.
func (r UncheckedRecv) Recv() (types.Label, any, error) {
	if r.q == nil {
		return "", nil, fmt.Errorf("session: Recv on zero UncheckedRecv")
	}
	m, err := channel.Recv(r.q, time.Time{})
	if err != nil {
		return "", nil, err
	}
	return m.Label, m.Value, nil
}

// TryRecv returns the next message on the bound route if one has arrived,
// and ErrWouldBlock — with no effect — when none has; the receive-side leg
// of the non-blocking algebra under the generated Try* methods.
func (r UncheckedRecv) TryRecv() (types.Label, any, error) {
	if r.q == nil {
		return "", nil, fmt.Errorf("session: TryRecv on zero UncheckedRecv")
	}
	m, ok, err := r.q.TryRecv()
	if err != nil {
		return "", nil, err
	}
	if !ok {
		return "", nil, ErrWouldBlock
	}
	return m.Label, m.Value, nil
}
