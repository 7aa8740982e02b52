// Package genrt is the runtime support library for the state-pattern
// packages emitted by internal/codegen (cmd/sessgen). Generated code encodes
// a verified FSM in the Go type system — one struct per state, one method
// per transition — so its sends and receives run on the monitor-free
// unchecked endpoint primitives of package session: conformance is correct
// by construction and is not re-checked per message (see DESIGN.md).
//
// What Go's type system cannot encode is affinity: nothing stops a caller
// from keeping a copy of a state value and calling a second method on it,
// which would desynchronise the process from the protocol. genrt therefore
// carries the one dynamic guard the generated API still needs — a cheap
// one-shot stamp per state value (St): every state value records the
// sequence number it was minted with, and consuming a state increments the
// core's counter, so a stale value faults deterministically with
// ErrStateConsumed instead of corrupting the session. This is one integer
// compare per operation, far below the monitor's per-message FSM scan and
// sort check.
//
// genrt also holds the bodies of the generated transition methods. A
// generated Send*, Recv*, Branch or Try* method is one call to Send,
// TrySend, Recv, TryRecv, Branch or TryBranch, which check and advance the
// stamp around the route operation, and then builds its successor state
// from the stamp the helper returns. Only the helpers step a stamp, so
// St's stepping methods are unexported.
//
// Nothing in this package is useful to hand-written application code; it is
// public to the module only so that generated packages (which live outside
// internal/codegen) can import it.
package genrt

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/session"
	"repro/internal/types"
)

// ErrStateConsumed is returned when a generated state value is used twice,
// or when a branch continuation other than the received one is driven: the
// state-pattern analogue of session.ErrLinearity, at the granularity of a
// single protocol state.
var ErrStateConsumed = errors.New("genrt: state value already consumed (one-shot linearity violation)")

// ErrIncomplete is returned by Finish when the End value handed back by a
// process is not the live terminal state of its session — the process
// returned a stale or foreign End, so the protocol cannot be known to have
// run to completion.
var ErrIncomplete = errors.New("genrt: process did not return the live End state")

// Core is one generated session's mutable heart: the unchecked endpoint
// face plus the linearity counter all of the role's state values share.
type Core struct {
	u    session.Unchecked
	role types.Role
	seq  uint32
}

// U returns the unchecked endpoint face, for generated cores to resolve
// their route-bound senders and receivers at session start.
func (c *Core) U() session.Unchecked { return c.u }

// Init mints the stamp of a session's initial state value.
func (c *Core) Init() St { return St{C: c, Seq: c.seq} }

// MissingProc reports a nil process in a generated Procs struct.
func MissingProc(role types.Role) error {
	return fmt.Errorf("genrt: no process supplied for role %s", role)
}

// St is the one-shot stamp embedded (unexported) in every generated state
// value. Its zero value is permanently consumed, which is what makes the
// unused continuations inside a received branch struct unusable.
type St struct {
	C   *Core
	Seq uint32
}

// peekAs verifies the stamp is live without consuming it; a stale stamp
// faults with the generated state type's name attached, so a dynamic
// linearity violation that slipped past sessvet points at the violating
// state (e.g. "streaming.B2: state value already consumed...").
func (s St) peekAs(state string) error {
	if s.Live() {
		return nil
	}
	return stale(state)
}

// stale is peekAs's fault, kept out of line so that peekAs inlines into
// the transition helpers.
//
//go:noinline
func stale(state string) error {
	return fmt.Errorf("%s: %w", state, ErrStateConsumed)
}

// advance consumes a stamp already verified live (peekAs) and mints the
// successor. The blocking helpers advance before the route operation, so
// any failure leaves the state consumed; the Try* helpers advance only once
// the operation succeeds or faults — never on would-block, where the
// protocol state genuinely has not moved.
func (s St) advance() St {
	s.C.seq++
	return St{C: s.C, Seq: s.C.seq}
}

// Live reports whether the stamp is the core's current state (used by
// Finish on the End value a process returns).
func (s St) Live() bool { return s.C != nil && s.Seq == s.C.seq }

// Session runs body with exclusive ownership of role's endpoint on net,
// handing it the core all of the role's generated state values will share.
// Endpoint linearity (one session at a time per endpoint) rides on
// session.TrySession; the endpoint is unmonitored, so TrySession imposes no
// terminal-state requirement — for terminating roles, that is Finish's job.
func Session(net *session.Network, role types.Role, body func(c *Core) error) error {
	return session.TrySession(net.Endpoint(role), func(e *session.Endpoint) error {
		return body(&Core{u: session.UncheckedForCodegen(e), role: role, seq: 1})
	})
}

// Finish verifies that end is the live terminal state of c's session: the
// End value must have been minted by this core and not superseded. Generated
// runners for terminating roles call this with the End value the process
// returns, so "the process completed its protocol" is witnessed by a value
// that can only be obtained by driving the session to its final state.
func Finish(c *Core, end St) error {
	if end.C != c || !end.Live() {
		return fmt.Errorf("%w: role %s", ErrIncomplete, c.role)
	}
	return nil
}

// Unexpected reports a message whose label matches no transition of the
// generated receiving state. With both parties generated from verified
// machines this is unreachable; it guards mixed deployments where the peer
// is hand-written.
func Unexpected(role types.Role, state string, from types.Role, got types.Label) error {
	return fmt.Errorf("genrt: role %s in state %s received unexpected label %s from %s", role, state, got, from)
}

// The transition helpers below are the bodies of the generated transition
// methods: each generated Send*, Recv*, Branch and their Try* forms is one
// call into them followed by building the successor state from the stamp
// they return. state is the qualified name of the generated state type
// (e.g. "auth.A1"), used for stale-stamp faults; Unexpected is given its
// unqualified form. Every error return carries the zero St. The blocking
// helpers consume the stamp before touching the route, so any failure
// leaves the state consumed. The Try* helpers consume it on every outcome
// except session.ErrWouldBlock, which leaves the state live for a retry.

// Send is a generated blocking Send: consume the stamp, then send label and
// payload (nil for a signal) on the bound route.
func Send(st St, state string, to session.UncheckedSend, label types.Label, payload any) (St, error) {
	if err := st.peekAs(state); err != nil {
		return St{}, err
	}
	next := st.advance()
	if err := to.Send(label, payload); err != nil {
		return St{}, err
	}
	return next, nil
}

// TrySend is the non-blocking Send.
func TrySend(st St, state string, to session.UncheckedSend, label types.Label, payload any) (St, error) {
	if err := st.peekAs(state); err != nil {
		return St{}, err
	}
	if err := to.TrySend(label, payload); err != nil {
		if !errors.Is(err, session.ErrWouldBlock) {
			st.advance()
		}
		return St{}, err
	}
	return st.advance(), nil
}

// Recv is a generated blocking single-transition receive: consume the
// stamp, receive from peer on the bound route, require label and convert
// the payload with conv (Signal for a payload-free message).
func Recv[T any](st St, state string, from session.UncheckedRecv, peer types.Role, label types.Label, conv func(any) (T, error)) (T, St, error) {
	var zero T
	if err := st.peekAs(state); err != nil {
		return zero, St{}, err
	}
	next := st.advance()
	got, v, err := from.Recv()
	if err != nil {
		return zero, St{}, err
	}
	if got != label {
		return zero, St{}, Unexpected(st.C.role, bare(state), peer, got)
	}
	payload, err := conv(v)
	if err != nil {
		return zero, St{}, err
	}
	return payload, next, nil
}

// TryRecv is the non-blocking Recv.
func TryRecv[T any](st St, state string, from session.UncheckedRecv, peer types.Role, label types.Label, conv func(any) (T, error)) (T, St, error) {
	var zero T
	if err := st.peekAs(state); err != nil {
		return zero, St{}, err
	}
	got, v, err := from.TryRecv()
	if err != nil {
		if !errors.Is(err, session.ErrWouldBlock) {
			st.advance()
		}
		return zero, St{}, err
	}
	next := st.advance()
	if got != label {
		return zero, St{}, Unexpected(st.C.role, bare(state), peer, got)
	}
	payload, err := conv(v)
	if err != nil {
		return zero, St{}, err
	}
	return payload, next, nil
}

// Branch is a generated blocking branching receive: consume the stamp and
// return the next message on the bound route. The generated method matches
// the label against its cases and converts the payload.
func Branch(st St, state string, from session.UncheckedRecv) (types.Label, any, St, error) {
	if err := st.peekAs(state); err != nil {
		return "", nil, St{}, err
	}
	next := st.advance()
	label, v, err := from.Recv()
	if err != nil {
		return "", nil, St{}, err
	}
	return label, v, next, nil
}

// TryBranch is the non-blocking Branch.
func TryBranch(st St, state string, from session.UncheckedRecv) (types.Label, any, St, error) {
	if err := st.peekAs(state); err != nil {
		return "", nil, St{}, err
	}
	label, v, err := from.TryRecv()
	if err != nil {
		if !errors.Is(err, session.ErrWouldBlock) {
			st.advance()
		}
		return "", nil, St{}, err
	}
	return label, v, st.advance(), nil
}

// bare strips the package qualifier from a qualified state name.
func bare(state string) string {
	return state[strings.LastIndexByte(state, '.')+1:]
}

// Runner collects one goroutine per generated role process, errgroup-style:
// the first error wins and tears the network down so sibling processes
// blocked on messages that will never arrive fail promptly instead of
// deadlocking (mirroring session.Session.Run).
type Runner struct {
	net   *session.Network
	wg    sync.WaitGroup
	mu    sync.Mutex
	first error
}

// NewRunner returns a runner tearing down net on first error.
func NewRunner(net *session.Network) *Runner { return &Runner{net: net} }

// Go launches one role's process.
func (r *Runner) Go(role types.Role, f func() error) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		if err := f(); err != nil && !errors.Is(err, session.ErrStopped) {
			r.mu.Lock()
			if r.first == nil {
				r.first = fmt.Errorf("role %s: %w", role, err)
				r.net.Close()
			}
			r.mu.Unlock()
		}
	}()
}

// Wait blocks until every process returns and yields the first error.
func (r *Runner) Wait() error {
	r.wg.Wait()
	return r.first
}

// Payload converters: generated receive methods type their payloads from
// the declared sorts, but the wire carries any. The converters accept the
// same Go kinds the monitor's sort check does (sortAccepts), so a monitored
// peer and a generated peer interoperate on one network.

func convErr(sort string, v any) error {
	return fmt.Errorf("genrt: payload %T does not inhabit sort %s", v, sort)
}

// Signal is the converter of a payload-free receive: a generated signal has
// no payload result, so whatever value rides along is ignored.
func Signal(any) (struct{}, error) { return struct{}{}, nil }

// As converts a received payload of a registry-bound sort (types.LookupSort)
// to its exact Go binding T: a single type assertion on the interface value,
// so slice-backed vector sorts like vec<complex128> are unwrapped zero-copy
// — the []complex128 that entered the ring at the sender is the very slice
// handed to the receiving process. nil (no payload attached) converts to T's
// zero value, as for the scalar converters.
func As[T any](sort string, v any) (T, error) {
	if v == nil {
		var zero T
		return zero, nil
	}
	t, ok := v.(T)
	if !ok {
		var zero T
		return zero, convErr(sort, v)
	}
	return t, nil
}

// I32 converts a received payload declared i32.
func I32(v any) (int32, error) {
	switch n := v.(type) {
	case int32:
		return n, nil
	case int:
		return int32(n), nil
	case nil:
		return 0, nil
	}
	return 0, convErr("i32", v)
}

// U32 converts a received payload declared u32.
//
//repro:keep codegen.sortGo emits calls to it by name for generated receives
func U32(v any) (uint32, error) {
	switch n := v.(type) {
	case uint32:
		return n, nil
	case uint:
		return uint32(n), nil
	case nil:
		return 0, nil
	}
	return 0, convErr("u32", v)
}

// I64 converts a received payload declared i64 or int.
//
//repro:keep codegen.sortGo emits calls to it by name for generated receives
func I64(v any) (int64, error) {
	switch n := v.(type) {
	case int64:
		return n, nil
	case int:
		return int64(n), nil
	case nil:
		return 0, nil
	}
	return 0, convErr("i64", v)
}

// U64 converts a received payload declared u64.
//
//repro:keep codegen.sortGo emits calls to it by name for generated receives
func U64(v any) (uint64, error) {
	switch n := v.(type) {
	case uint64:
		return n, nil
	case uint:
		return uint64(n), nil
	case nil:
		return 0, nil
	}
	return 0, convErr("u64", v)
}

// Int converts a received payload declared int.
//
//repro:keep codegen.sortGo emits calls to it by name for generated receives
func Int(v any) (int, error) {
	switch n := v.(type) {
	case int:
		return n, nil
	case int64:
		return int(n), nil
	case nil:
		return 0, nil
	}
	return 0, convErr("int", v)
}

// Nat converts a received payload declared nat.
//
//repro:keep codegen.sortGo emits calls to it by name for generated receives
func Nat(v any) (uint, error) {
	switch n := v.(type) {
	case uint:
		return n, nil
	case uint32:
		return uint(n), nil
	case uint64:
		return uint(n), nil
	case int:
		if n >= 0 {
			return uint(n), nil
		}
	case int64:
		if n >= 0 {
			return uint(n), nil
		}
	case nil:
		return 0, nil
	}
	return 0, convErr("nat", v)
}

// F64 converts a received payload declared f64.
//
//repro:keep codegen.sortGo emits calls to it by name for generated receives
func F64(v any) (float64, error) {
	switch n := v.(type) {
	case float64:
		return n, nil
	case nil:
		return 0, nil
	}
	return 0, convErr("f64", v)
}

// Str converts a received payload declared str.
//
//repro:keep codegen.sortGo emits calls to it by name for generated receives
func Str(v any) (string, error) {
	switch n := v.(type) {
	case string:
		return n, nil
	case nil:
		return "", nil
	}
	return "", convErr("str", v)
}

// Bool converts a received payload declared bool.
//
//repro:keep codegen.sortGo emits calls to it by name for generated receives
func Bool(v any) (bool, error) {
	switch n := v.(type) {
	case bool:
		return n, nil
	case nil:
		return false, nil
	}
	return false, convErr("bool", v)
}
