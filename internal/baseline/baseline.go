// Package baseline provides miniature session runtimes reproducing the cost
// models of the three Rust frameworks Rumpsteak is evaluated against in §4.1:
//
//   - Sesh: binary sessions, synchronous communication, and a fresh one-shot
//     channel allocated per interaction (the continuation channel travels
//     with each message);
//   - Ferrite: like Sesh but asynchronous — the sender does not wait for the
//     receiver — while still allocating a continuation channel per step;
//   - MultiCrusty: multiparty sessions represented as a mesh of binary Sesh
//     channels, one per pair of roles, all synchronous with per-interaction
//     allocation.
//
// The Rumpsteak-analogue runtime (package session) instead keeps one
// persistent unbounded queue per ordered pair and never blocks on send; the
// throughput gap between these designs is what Fig. 6 measures.
package baseline

import (
	"fmt"

	"repro/internal/types"
)

// Style selects a baseline cost model.
type Style int

const (
	// Sesh is binary + synchronous + per-interaction channel allocation.
	Sesh Style = iota
	// Ferrite is binary + asynchronous + per-interaction channel allocation.
	Ferrite
	// MultiCrusty is multiparty-as-binary-mesh + synchronous +
	// per-interaction channel allocation.
	MultiCrusty
)

func (s Style) String() string {
	switch s {
	case Sesh:
		return "sesh"
	case Ferrite:
		return "ferrite"
	case MultiCrusty:
		return "multicrusty"
	default:
		return "unknown"
	}
}

// packet carries one message plus the continuation channel for the next
// interaction, mirroring how Sesh threads its one-shot channels.
type packet struct {
	label types.Label
	value any
	next  *Chan
}

// Chan is one endpoint of a one-shot binary session channel in
// continuation-passing style: Send and Recv consume the channel and return
// the continuation. Both sides of a pair hold the same *Chan.
type Chan struct {
	ch    chan packet
	async bool
}

// NewPair allocates a fresh one-shot channel; both participants of a binary
// session share it. async selects the Ferrite cost model (buffered by one),
// otherwise the sender blocks until reception (Sesh, MultiCrusty).
func NewPair(async bool) *Chan {
	return newChan(async)
}

func newChan(async bool) *Chan {
	capacity := 0
	if async {
		capacity = 1
	}
	return &Chan{ch: make(chan packet, capacity), async: async}
}

// Send transmits label(value) and returns the continuation channel. The
// continuation is freshly allocated here — the per-interaction allocation
// cost the baselines pay and Rumpsteak avoids.
func (c *Chan) Send(label types.Label, value any) *Chan {
	next := newChan(c.async)
	c.ch <- packet{label: label, value: value, next: next}
	return next
}

// Recv blocks for the next message and returns it with the continuation
// channel.
func (c *Chan) Recv() (types.Label, any, *Chan) {
	p := <-c.ch
	return p.label, p.value, p.next
}

// Mesh is the MultiCrusty representation of a multiparty session: one binary
// channel per unordered pair of roles, threaded in continuation-passing
// style. Each role's endpoint tracks the current channel for every peer.
type Mesh struct {
	endpoints map[types.Role]*MeshEndpoint
}

// NewMesh wires a full mesh over the given roles. async selects the Ferrite
// cost model for each pairwise channel (used when representing a multiparty
// protocol as binary Ferrite sessions, as §4.1 does for double buffering).
func NewMesh(async bool, roles ...types.Role) *Mesh {
	m := &Mesh{endpoints: map[types.Role]*MeshEndpoint{}}
	for _, r := range roles {
		m.endpoints[r] = &MeshEndpoint{role: r, peers: map[types.Role]*Chan{}}
	}
	for i, a := range roles {
		for _, b := range roles[i+1:] {
			ch := NewPair(async)
			m.endpoints[a].peers[b] = ch
			m.endpoints[b].peers[a] = ch
		}
	}
	return m
}

// Endpoint returns the endpoint for a role, or nil if unknown.
func (m *Mesh) Endpoint(role types.Role) *MeshEndpoint { return m.endpoints[role] }

// MeshEndpoint is one role's view of a MultiCrusty-style session. Not safe
// for concurrent use; each role runs in its own goroutine.
type MeshEndpoint struct {
	role  types.Role
	peers map[types.Role]*Chan
}

// Role returns the endpoint's role.
func (e *MeshEndpoint) Role() types.Role { return e.role }

// Send transmits to a peer over the current pairwise channel and threads the
// continuation.
func (e *MeshEndpoint) Send(to types.Role, label types.Label, value any) error {
	ch, ok := e.peers[to]
	if !ok {
		return fmt.Errorf("baseline: %s has no channel to %s", e.role, to)
	}
	e.peers[to] = ch.Send(label, value)
	return nil
}

// Recv blocks for the next message from a peer and threads the continuation.
func (e *MeshEndpoint) Recv(from types.Role) (types.Label, any, error) {
	ch, ok := e.peers[from]
	if !ok {
		return "", nil, fmt.Errorf("baseline: %s has no channel to %s", e.role, from)
	}
	label, value, next := ch.Recv()
	e.peers[from] = next
	return label, value, nil
}

// RecvLabel is Recv with a label assertion.
func (e *MeshEndpoint) RecvLabel(from types.Role, want types.Label) (any, error) {
	label, value, err := e.Recv(from)
	if err != nil {
		return nil, err
	}
	if label != want {
		return nil, fmt.Errorf("baseline: %s expected %s from %s, got %s", e.role, want, from, label)
	}
	return value, nil
}
