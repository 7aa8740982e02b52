// Package kmc implements k-multiparty compatibility (Lange & Yoshida,
// CAV'19), the global verification used by Rumpsteak's bottom-up workflow
// (§2.2) and as an evaluation baseline in §4.2.
//
// A system of communicating finite state machines is explored with every
// pairwise FIFO queue bounded by k. The checker verifies
//
//   - k-safety: no reachable configuration is a deadlock, an unspecified
//     reception (a machine blocked on receiving while an unexpected message
//     heads one of its queues) or an orphan-message termination; and
//   - k-exhaustivity: every send available at a machine's current state can
//     be fired after some moves of the other machines, i.e. the bound k never
//     artificially blocks an output.
//
// Together these imply that the unbounded system is safe and live for the
// same FSMs. The exploration is exponential in the number of machines and in
// k — this global blow-up versus Rumpsteak's local subtyping is exactly what
// Fig. 7 of the paper measures.
//
// Configurations are compact. NewSystem interns every (label, sort) pair a
// transition carries as a small integer id, resolves every peer to its
// machine index, and keeps only the queues some transition uses. A
// configuration is stored only as its key, a run of fixed-width fields in
// one byte arena: each machine's control state, each queue's length, then
// the queued message ids queue by queue. The states and lengths sit at
// fixed offsets, so any configuration's queue length is one read. Expanding
// a configuration decodes its key once; each successor is written at the
// arena's tail by copying the unchanged byte ranges around the one state
// and the one queue the move touches, hashed once, and looked up in an
// open-addressed index of configuration ids; a successor already visited is
// cut off the arena again, so it allocates nothing.
//
// Exhaustivity is decided once per explored graph rather than once per
// configuration. The breadth-first exploration records every edge with the
// machine that took it. A send of machine m blocked by the full queue m→p
// can fire eventually exactly when some configuration whose m→p queue has
// room is reachable by moves of the other machines. So for each blocked
// (machine, peer) pair one backward fixpoint over the edges the other
// machines take marks every configuration from which the queue drains, and
// each blocked send is a lookup in that set.
package kmc

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/fsm"
	"repro/internal/types"
)

// ViolationKind classifies a compatibility failure.
type ViolationKind int

const (
	// Deadlock: no machine can move, yet not all are final with empty queues.
	Deadlock ViolationKind = iota
	// UnspecifiedReception: a machine is blocked receiving while a queue it
	// expects from heads with a message it cannot accept.
	UnspecifiedReception
	// OrphanMessage: all machines are final but a queue is non-empty.
	OrphanMessage
	// NotExhaustive: a send remains blocked by a full queue no matter how the
	// other machines move; the system is not k-exhaustive for this k.
	NotExhaustive
)

func (k ViolationKind) String() string {
	switch k {
	case Deadlock:
		return "deadlock"
	case UnspecifiedReception:
		return "unspecified reception"
	case OrphanMessage:
		return "orphan message"
	case NotExhaustive:
		return "not k-exhaustive"
	default:
		return "unknown"
	}
}

// Violation describes one compatibility failure, with the configuration it
// occurred in rendered for diagnostics.
type Violation struct {
	Kind   ViolationKind
	Role   types.Role
	Config string
	Detail string
}

func (v Violation) Error() string {
	return fmt.Sprintf("kmc: %s at %s in %s: %s", v.Kind, v.Role, v.Config, v.Detail)
}

// Result is the outcome of a k-MC check.
type Result struct {
	OK        bool
	Violation *Violation // first violation found, if any
	// Configs is the number of distinct reachable configurations explored —
	// the cost driver that Fig. 7 benchmarks.
	Configs int
}

// System is a closed set of communicating machines, one per role.
type System struct {
	machines []*fsm.FSM
	roles    []types.Role
	// steps holds every machine's transitions, state by state in the
	// machine's order, with peers resolved and messages interned. Machine
	// m's transitions at state st are steps[stepAt[i]:stepAt[i+1]] for
	// i = base[m]+st.
	steps  []step
	stepAt []int32
	base   []int32
	// queues lists the ordered pairs some transition uses, as
	// sender*n + receiver in ascending order; a step's queue is an index
	// into it. Only these queues are stored in a configuration.
	queues []int32
	// msgs holds the interned (label, sort) pairs by id. accepts[a*len(msgs)+b]
	// reports whether a queued message a is received by a transition
	// expecting b: same label, and a's sort is a subsort of b's.
	msgs    []message
	accepts []bool
	// maxField is the largest state or message id: with the bound, it sets
	// the width of a key's fields.
	maxField int
}

// message is one (label, sort) pair a transition carries.
type message struct {
	label types.Label
	sort  types.Sort
}

// step is one compiled transition.
type step struct {
	send bool
	peer int32 // machine index
	msg  int32 // message id
	to   int32 // target state
	q    int32 // index into System.queues of the queue the step uses
}

// NewSystem builds a system from machines with pairwise-distinct roles. Every
// peer mentioned by a transition must be one of the system's roles.
func NewSystem(machines ...*fsm.FSM) (*System, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("kmc: empty system")
	}
	n := len(machines)
	s := &System{machines: slices.Clone(machines), roles: make([]types.Role, n), base: make([]int32, n+1)}
	nt := 0
	for mi, m := range machines {
		if slices.Contains(s.roles[:mi], m.Role()) {
			return nil, fmt.Errorf("kmc: duplicate role %s", m.Role())
		}
		s.roles[mi] = m.Role()
		s.base[mi+1] = s.base[mi] + int32(m.NumStates())
		for st := range m.NumStates() {
			nt += len(m.Transitions(fsm.State(st)))
		}
		s.maxField = max(s.maxField, m.NumStates()-1)
	}
	s.steps = make([]step, 0, nt)
	s.stepAt = make([]int32, s.base[n]+1)
	ids := map[message]int32{}
	used := make([]bool, n*n)
	for mi, m := range machines {
		for st := range m.NumStates() {
			for _, t := range m.Transitions(fsm.State(st)) {
				peer := slices.Index(s.roles, t.Act.Peer)
				if peer < 0 {
					return nil, fmt.Errorf("kmc: machine %s mentions unknown role %s", m.Role(), t.Act.Peer)
				}
				msg := message{label: t.Act.Label, sort: t.Act.Sort}
				id, ok := ids[msg]
				if !ok {
					id = int32(len(s.msgs))
					ids[msg] = id
					s.msgs = append(s.msgs, msg)
				}
				send := t.Act.Dir == fsm.Send
				q := peer*n + mi
				if send {
					q = mi*n + peer
				}
				used[q] = true
				// q holds the pair until every used pair is known.
				s.steps = append(s.steps, step{send: send, peer: int32(peer), msg: id, to: int32(t.To), q: int32(q)})
			}
			s.stepAt[int(s.base[mi])+st+1] = int32(len(s.steps))
		}
	}
	index := make([]int32, n*n)
	for q, u := range used {
		if u {
			index[q] = int32(len(s.queues))
			s.queues = append(s.queues, int32(q))
		}
	}
	for i := range s.steps {
		s.steps[i].q = index[s.steps[i].q]
	}
	s.maxField = max(s.maxField, len(s.msgs)-1)
	s.accepts = make([]bool, len(s.msgs)*len(s.msgs))
	for a, ma := range s.msgs {
		for b, mb := range s.msgs {
			s.accepts[a*len(s.msgs)+b] = ma.label == mb.label && types.SubSort(ma.sort, mb.sort)
		}
	}
	return s, nil
}

// stepsAt returns machine mi's transitions at state st.
func (s *System) stepsAt(mi int, st int32) []step {
	at := int(s.base[mi]) + int(st)
	return s.steps[s.stepAt[at]:s.stepAt[at+1]]
}

// edge is an explored move: machine by moved to configuration to. The edges
// out of configuration c are edges[out[c]:out[c+1]].
type edge struct {
	to, by int32
}

// stepRef names a transition of the loaded configuration: machine mi's
// System.steps[st].
type stepRef struct {
	mi, st int32
}

// pred is a reversed edge: machine by moved from configuration from.
type pred struct {
	from, by int32
}

// blocked is a send that the bound blocks in an expanded configuration and
// that the peer cannot make room for by receiving right away.
type blocked struct {
	config  int32
	machine int32
	trans   int32 // index into the machine's transitions at its state
	q       int32 // the full queue
}

// explorer holds one breadth-first exploration under queue bound k. Its
// storage is reset, not freed, between explorations, so the k's of one
// CheckUpTo and successive checks (through explorers) reuse it.
//
// A configuration's key is w-byte little-endian fields: n machine states,
// then len(s.queues) queue lengths, then the queued message ids queue by
// queue, head first. Configuration c's key is arena[at[c]:at[c+1]].
type explorer struct {
	s     *System
	k, n  int
	nq, w int
	arena []byte
	at    []int32
	// slots is an open-addressed, linearly probed index of the
	// configurations, its length a power of two at least twice their
	// number. A slot holds the upper 32 bits of the key's hash above the
	// configuration id plus one; 0 is empty. The cached hash bits pick the
	// slot and filter a probe before the keys are compared, and let the
	// index grow without rehashing a key.
	slots []uint64
	spare []uint64
	seed  maphash.Seed
	// seen[c] is the number of configurations when c was dequeued: the
	// Configs of a check that stops at c.
	seen    []int32
	edges   []edge
	out     []int32 // out[c]: first edge out of c; len(out)-1 configurations are expanded
	blocked []blocked
	next    int // next configuration to expand
	// The configuration being expanded: its key, each machine's state, each
	// queue's length, head message and field index of its first message
	// (qAt[nq] is the key's field count); its enabled moves, and its sends
	// the bound blocks.
	key    []byte
	states []int32
	qlen   []int32
	qhead  []int32
	qAt    []int32
	moves  []stepRef
	full   []stepRef
	// firstStuck's scratch: the edges reversed, the edges into c being
	// preds[predAt[c]:predAt[c+1]]; fireAt[q] is the offset in fire of queue
	// q's drain set, or -1 before it is computed; work is drains' stack.
	preds  []pred
	predAt []int32
	fire   []bool
	fireAt []int32
	work   []int32
	// verdict marks a check whose caller reads only OK (CheckUpTo below
	// its last bound): a violation is then unrendered, and the first
	// unsafe configuration ends the check.
	verdict bool
}

// unrendered is the violation a verdict-only check reports.
var unrendered = &Violation{}

// violation returns the violation kind by machine mi at the loaded
// configuration, its detail formatted by detail, or unrendered in a
// verdict-only check.
func (e *explorer) violation(kind ViolationKind, mi int, detail func() string) *Violation {
	if e.verdict {
		return unrendered
	}
	return &Violation{Kind: kind, Role: e.s.roles[mi], Config: e.render(e.key), Detail: detail()}
}

// minSlots is the index size an exploration starts from.
const minSlots = 64

// explorers holds idle explorers for the next checks, at most its capacity
// of them, each with at most pooledBytes of storage: a check that explored
// hundreds of thousands of configurations frees its storage rather than
// pinning it for the small checks after it. Unlike a sync.Pool, which a
// collection empties and whose items are bound to the processor that
// returned them, it hands storage to the next check whatever the
// collector and the scheduler did in between.
var explorers = make(chan *explorer, 4)

const pooledBytes = 256 << 10

func getExplorer() *explorer {
	select {
	case e := <-explorers:
		return e
	default:
		return &explorer{seed: maphash.MakeSeed()}
	}
}

func putExplorer(e *explorer) {
	e.s, e.key = nil, nil
	size := cap(e.arena) + 4*(cap(e.at)+cap(e.seen)+cap(e.out)+cap(e.predAt)+cap(e.fireAt)+cap(e.work)) +
		8*(cap(e.slots)+cap(e.spare)+cap(e.edges)+cap(e.preds)+cap(e.moves)+cap(e.full)) + cap(e.fire) + 16*cap(e.blocked)
	if size > pooledBytes {
		return
	}
	select {
	case explorers <- e:
	default:
	}
}

// reset empties e for an exploration of s under bound k, seeded with the
// initial configuration.
func (e *explorer) reset(s *System, k int) {
	e.s, e.k, e.n, e.nq = s, k, len(s.machines), len(s.queues)
	switch m := max(k, s.maxField); {
	case m <= 0xff:
		e.w = 1
	case m <= 0xffff:
		e.w = 2
	default:
		e.w = 4
	}
	e.at, e.out = append(e.at[:0], 0), append(e.out[:0], 0)
	e.seen, e.edges, e.blocked = e.seen[:0], e.edges[:0], e.blocked[:0]
	e.slots = resize(e.slots, minSlots)
	clear(e.slots)
	e.next = 0
	e.states = resize(e.states, e.n)
	e.qlen = resize(e.qlen, e.nq)
	e.qhead = resize(e.qhead, e.nq)
	e.qAt = resize(e.qAt, e.nq+1)
	b := e.arena[:0]
	for _, m := range s.machines {
		b = e.appendField(b, int(m.Initial()))
	}
	for range e.nq {
		b = e.appendField(b, 0)
	}
	e.arena = b
	e.add(0)
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reserve returns s with room for n more elements. It at least doubles the
// capacity when it must grow, so that a long exploration copies each element
// a bounded number of times.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) < n {
		return slices.Grow(s, max(n, len(s)))
	}
	return s
}

// field returns the i-th field of key.
func (e *explorer) field(key []byte, i int) int32 {
	switch e.w {
	case 1:
		return int32(key[i])
	case 2:
		return int32(binary.LittleEndian.Uint16(key[2*i:]))
	default:
		return int32(binary.LittleEndian.Uint32(key[4*i:]))
	}
}

// setField overwrites the i-th field of key with v.
func (e *explorer) setField(key []byte, i int, v int32) {
	switch e.w {
	case 1:
		key[i] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(key[2*i:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(key[4*i:], uint32(v))
	}
}

// appendField appends v as one field.
func (e *explorer) appendField(b []byte, v int) []byte {
	switch e.w {
	case 1:
		return append(b, byte(v))
	case 2:
		return binary.LittleEndian.AppendUint16(b, uint16(v))
	default:
		return binary.LittleEndian.AppendUint32(b, uint32(v))
	}
}

// keyOf returns configuration c's key.
func (e *explorer) keyOf(c int32) []byte { return e.arena[e.at[c]:e.at[c+1]] }

// configs returns the number of configurations discovered.
func (e *explorer) configs() int { return len(e.at) - 1 }

// add returns the index of the configuration whose key is arena[start:],
// recording it if new and cutting the key off the arena if not.
func (e *explorer) add(start int) int32 {
	key := e.arena[start:]
	tag := maphash.Bytes(e.seed, key) >> 32
	mask := uint64(len(e.slots) - 1)
	i := tag & mask
	for ; e.slots[i] != 0; i = (i + 1) & mask {
		if e.slots[i]>>32 != tag {
			continue
		}
		if c := int32(e.slots[i]) - 1; string(e.keyOf(c)) == string(key) {
			e.arena = e.arena[:start]
			return c
		}
	}
	if len(e.arena) > math.MaxInt32 {
		panic("kmc: configuration keys exceed 2 GiB")
	}
	c := int32(e.configs())
	e.slots[i] = tag<<32 | uint64(c+1)
	e.at = append(e.at, int32(len(e.arena)))
	if 2*e.configs() > len(e.slots) {
		e.grow()
	}
	return c
}

// grow doubles the index and reinserts every configuration by its cached
// hash bits. The old table is kept as the spare for the next growth.
func (e *explorer) grow() {
	next := resize(e.spare, 2*len(e.slots))
	clear(next)
	mask := uint64(len(next) - 1)
	for _, s := range e.slots {
		if s == 0 {
			continue
		}
		i := s >> 32 & mask
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = s
	}
	e.slots, e.spare = next, e.slots
}

// load decodes configuration c into the expansion state.
func (e *explorer) load(c int32) {
	key := e.keyOf(c)
	e.key = key
	for i := range e.states {
		e.states[i] = e.field(key, i)
	}
	at := int32(e.n + e.nq)
	for q := range e.qlen {
		l := e.field(key, e.n+q)
		e.qlen[q], e.qAt[q] = l, at
		if l > 0 {
			e.qhead[q] = e.field(key, int(at))
		}
		at += l
	}
	e.qAt[e.nq] = at
}

// successor writes at the arena's tail the key of the configuration after
// machine mi takes st in the loaded configuration: mi moves to st.to, and
// queue st.q gains st.msg at its tail (a send) or loses its head (a
// receive).
func (e *explorer) successor(mi int, st step) {
	start, w, q := len(e.arena), e.w, int(st.q)
	var b []byte
	l := e.qlen[q]
	if st.send {
		tail := w * int(e.qAt[q+1])
		b = append(e.arena, e.key[:tail]...)
		b = e.appendField(b, int(st.msg))
		b = append(b, e.key[tail:]...)
		l++
	} else {
		head := w * int(e.qAt[q])
		b = append(e.arena, e.key[:head]...)
		b = append(b, e.key[head+w:]...)
		l--
	}
	key := b[start:]
	e.setField(key, mi, st.to)
	e.setField(key, e.n+q, l)
	e.arena = b
}

// canReceive reports whether receive st matches the head of its queue in the
// loaded configuration.
func (e *explorer) canReceive(st *step) bool {
	return e.qlen[st.q] > 0 && e.s.accepts[int(e.qhead[st.q])*len(e.s.msgs)+int(st.msg)]
}

// scan lists the loaded configuration's enabled moves under the queue bound
// and its sends the bound blocks, both in machine and transition order, and
// returns the first machine stuck on receives while a queue it expects from
// is non-empty — an unspecified reception — or -1.
func (e *explorer) scan() int {
	s, stuck := e.s, -1
	e.moves, e.full = e.moves[:0], e.full[:0]
	for mi := range e.n {
		at := int(s.base[mi]) + int(e.states[mi])
		lo, hi := s.stepAt[at], s.stepAt[at+1]
		recvOnly, waiting, before := lo < hi, false, len(e.moves)
		for i := lo; i < hi; i++ {
			st := &s.steps[i]
			var ok bool
			if st.send {
				recvOnly = false
				if ok = int(e.qlen[st.q]) < e.k; !ok {
					e.full = append(e.full, stepRef{mi: int32(mi), st: i})
				}
			} else {
				waiting = waiting || e.qlen[st.q] > 0
				ok = e.canReceive(st)
			}
			if ok {
				e.moves = append(e.moves, stepRef{mi: int32(mi), st: i})
			}
		}
		if stuck < 0 && recvOnly && waiting && len(e.moves) == before {
			stuck = mi
		}
	}
	return stuck
}

// explore expands configurations in breadth-first order. With check set it
// runs the safety check on each configuration and records its blocked sends
// first, and stops at the first unsafe one, returning its index and the
// violation; the configuration stays unexpanded, so a later call resumes
// with it.
func (e *explorer) explore(check bool) (int, *Violation) {
	for ; e.next < e.configs(); e.next++ {
		c := int32(e.next)
		e.load(c)
		stuck := e.scan()
		if check {
			e.seen = append(e.seen, int32(e.configs()))
			if v := e.safety(stuck); v != nil {
				return e.next, v
			}
			e.noteBlocked(c)
		}
		e.edges = reserve(e.edges, len(e.moves))
		e.at = reserve(e.at, len(e.moves))
		e.arena = reserve(e.arena, len(e.moves)*(len(e.key)+e.w))
		for _, mv := range e.moves {
			start := len(e.arena)
			e.successor(int(mv.mi), e.s.steps[mv.st])
			e.edges = append(e.edges, edge{to: e.add(start), by: mv.mi})
		}
		e.out = append(e.out, int32(len(e.edges)))
	}
	return -1, nil
}

// Check explores every configuration reachable under queue bound k and
// verifies k-safety and k-exhaustivity. k must be at least 1.
//
// The breadth-first exploration checks safety configuration by
// configuration and stops at the first unsafe one. Exhaustivity needs the
// graph: a blocked send can fire eventually when one backward fixpoint per
// blocked (machine, peer) pair, over the edges the other machines take,
// reaches its configuration from one where the queue has room. The
// violation reported is the first in breadth-first order, a safety one
// winning within a configuration, and Configs counts the configurations
// discovered when that configuration was dequeued — exactly what a search
// that checked exhaustivity per configuration and halted there reports.
// When the exploration stopped at an unsafe configuration, the explored
// graph may be too small to free a blocked send seen before it; the
// exploration then runs to completion before the blocked send is judged.
func Check(s *System, k int) Result {
	e := getExplorer()
	defer putExplorer(e)
	return e.check(s, max(k, 1), false)
}

// check is Check on e's storage. With verdict set only the result's OK
// means anything: the check neither renders a violation nor explores past
// an unsafe configuration.
func (e *explorer) check(s *System, k int, verdict bool) Result {
	e.reset(s, k)
	e.verdict = verdict
	at, unsafe := e.explore(true)
	if verdict && unsafe != nil {
		return Result{}
	}
	stuck, found := e.firstStuck()
	if found && unsafe != nil {
		e.explore(false)
		stuck, found = e.firstStuck()
	}
	switch {
	case found:
		return Result{Violation: e.notExhaustive(stuck), Configs: int(e.seen[stuck.config])}
	case unsafe != nil:
		return Result{Violation: unsafe, Configs: int(e.seen[at])}
	}
	return Result{OK: true, Configs: e.configs()}
}

// safety classifies the loaded configuration, scanned with stuck its first
// machine in an unspecified reception, if it is unsafe or stuck.
func (e *explorer) safety(stuck int) *Violation {
	s := e.s
	if stuck >= 0 {
		for _, st := range s.stepsAt(stuck, e.states[stuck]) {
			if e.qlen[st.q] > 0 {
				return e.violation(UnspecifiedReception, stuck, func() string {
					return fmt.Sprintf("queue %s->%s heads with %s, expected one of %s", s.roles[st.peer], s.roles[stuck], s.msgs[e.qhead[st.q]].label, expectedLabels(s.machines[stuck].Transitions(fsm.State(e.states[stuck]))))
				})
			}
		}
	}
	if len(e.moves) > 0 {
		return nil
	}
	allFinal := true
	for mi := range e.n {
		allFinal = allFinal && len(s.stepsAt(mi, e.states[mi])) == 0
	}
	queuesEmpty := !slices.ContainsFunc(e.qlen, func(l int32) bool { return l > 0 })
	switch {
	case allFinal && queuesEmpty:
		return nil // proper termination
	case allFinal:
		return e.violation(OrphanMessage, 0, func() string { return "terminated with non-empty queues" })
	}
	// If some machine is blocked only by the queue bound (its send would
	// fire with an unbounded queue), the failure is a k-exhaustivity
	// violation, not a true deadlock.
	for mi := range e.n {
		for _, tr := range s.machines[mi].Transitions(fsm.State(e.states[mi])) {
			if tr.Act.Dir == fsm.Send {
				return e.violation(NotExhaustive, mi, func() string {
					return fmt.Sprintf("system halts with send %s blocked by the bound", tr.Act)
				})
			}
		}
	}
	for mi := range e.n {
		if len(s.stepsAt(mi, e.states[mi])) > 0 {
			return e.violation(Deadlock, mi, func() string { return "no machine can move" })
		}
	}
	return nil
}

// noteBlocked records the sends of the loaded configuration c that the bound
// blocks. A send whose peer can receive the head of the full queue right now
// is skipped: one step by the peer frees a slot.
func (e *explorer) noteBlocked(c int32) {
	s := e.s
	for _, f := range e.full {
		mi, st := int(f.mi), &s.steps[f.st]
		head := s.msgs[e.qhead[st.q]].label
		drainable := false
		for _, pt := range s.stepsAt(int(st.peer), e.states[st.peer]) {
			if !pt.send && int(pt.peer) == mi && s.msgs[pt.msg].label == head {
				drainable = true
				break
			}
		}
		if !drainable {
			ti := f.st - s.stepAt[int(s.base[mi])+int(e.states[mi])]
			e.blocked = append(e.blocked, blocked{config: c, machine: f.mi, trans: ti, q: st.q})
		}
	}
}

// firstStuck returns the first recorded blocked send, in exploration order,
// that no sequence of moves by the other machines in the explored graph can
// free.
func (e *explorer) firstStuck() (blocked, bool) {
	if len(e.blocked) == 0 {
		return blocked{}, false
	}
	e.reverse()
	e.fire = e.fire[:0]
	e.fireAt = resize(e.fireAt, e.nq)
	for q := range e.fireAt {
		e.fireAt[q] = -1
	}
	for _, b := range e.blocked {
		if e.fireAt[b.q] < 0 {
			e.fireAt[b.q] = int32(len(e.fire))
			e.drains(int(b.machine), int(b.q))
		}
		if !e.fire[int(e.fireAt[b.q])+int(b.config)] {
			return b, true
		}
	}
	return blocked{}, false
}

// reverse files the explored edges by target into preds and predAt.
func (e *explorer) reverse() {
	nc := e.configs()
	e.predAt = resize(e.predAt, nc+1)
	clear(e.predAt)
	for _, ed := range e.edges {
		e.predAt[ed.to]++
	}
	sum := int32(0)
	for c, cnt := range e.predAt {
		sum += cnt
		e.predAt[c] = sum
	}
	// predAt[c] is now the end of c's block; filling each block from its
	// end leaves it at the block's start.
	e.preds = resize(e.preds, len(e.edges))
	for from := range len(e.out) - 1 {
		for _, ed := range e.edges[e.out[from]:e.out[from+1]] {
			e.predAt[ed.to]--
			e.preds[e.predAt[ed.to]] = pred{from: int32(from), by: ed.by}
		}
	}
}

// drains appends to fire the backward fixpoint for queue q, whose sender is
// machine mi: for each explored configuration, whether moves of machines
// other than mi reach one where q holds fewer than k messages.
func (e *explorer) drains(mi, q int) {
	base := len(e.fire)
	e.fire = slices.Grow(e.fire, e.configs())[:base+e.configs()]
	in := e.fire[base:]
	work := e.work[:0]
	for c := range in {
		in[c] = int(e.field(e.arena[e.at[c]:], e.n+q)) < e.k
		if in[c] {
			work = append(work, int32(c))
		}
	}
	for len(work) > 0 {
		c := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range e.preds[e.predAt[c]:e.predAt[c+1]] {
			if int(p.by) != mi && !in[p.from] {
				in[p.from] = true
				work = append(work, p.from)
			}
		}
	}
	e.work = work
}

func (e *explorer) notExhaustive(b blocked) *Violation {
	if e.verdict {
		return unrendered
	}
	e.load(b.config)
	tr := e.s.machines[b.machine].Transitions(fsm.State(e.states[b.machine]))[b.trans]
	return e.violation(NotExhaustive, int(b.machine), func() string {
		return fmt.Sprintf("send %s can never fire within bound %d", tr.Act, e.k)
	})
}

// render prints a configuration key for diagnostics.
func (e *explorer) render(key []byte) string {
	var parts []string
	for i := range e.n {
		parts = append(parts, fmt.Sprintf("%s@%d", e.s.roles[i], e.field(key, i)))
	}
	at := e.n + e.nq
	for qi, q := range e.s.queues {
		l := int(e.field(key, e.n+qi))
		if l == 0 {
			continue
		}
		labels := make([]string, l)
		for j := range labels {
			labels[j] = string(e.s.msgs[e.field(key, at+j)].label)
		}
		at += l
		parts = append(parts, fmt.Sprintf("%s->%s:[%s]", e.s.roles[int(q)/e.n], e.s.roles[int(q)%e.n], strings.Join(labels, ",")))
	}
	return "⟨" + strings.Join(parts, " ") + "⟩"
}

func expectedLabels(ts []fsm.Transition) string {
	var out []string
	for _, t := range ts {
		out = append(out, string(t.Act.Label))
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}

// CheckUpTo tries k = 1..maxK in turn and returns the first bound for which
// the system is k-MC, mirroring how the k-MC tool is used in practice. It
// returns the failing result for maxK when none succeeds. maxK below 1 is
// taken as 1, as Check takes k. The explorations share one explorer's
// storage; a failing k below maxK is checked for its verdict only, since
// its result is not returned.
func CheckUpTo(s *System, maxK int) (int, Result) {
	maxK = max(maxK, 1)
	e := getExplorer()
	defer putExplorer(e)
	var last Result
	for k := 1; k <= maxK; k++ {
		last = e.check(s, k, k < maxK)
		if last.OK {
			return k, last
		}
	}
	return maxK, last
}
