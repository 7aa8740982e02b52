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
// transition carries as a small integer id and resolves every peer to its
// machine index. A configuration is stored only as its packed key: each
// machine's control state, then for each ordered-pair queue its length and
// message ids, all as uvarints. Expanding a configuration decodes the field
// offsets of its key once; each successor is written into a scratch buffer
// by copying the unchanged byte ranges around the one state and the one
// queue the move touches, so a successor already visited allocates nothing.
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
	// steps[m][st] are machine m's transitions out of state st, in the
	// machine's order, with peers resolved and messages interned.
	steps [][][]step
	// msgs holds the interned (label, sort) pairs by id. accepts[a*len(msgs)+b]
	// reports whether a queued message a is received by a transition
	// expecting b: same label, and a's sort is a subsort of b's.
	msgs    []message
	accepts []bool
}

// message is one (label, sort) pair a transition carries.
type message struct {
	label types.Label
	sort  types.Sort
}

// step is one compiled transition.
type step struct {
	send bool
	peer int // machine index
	msg  int // message id
	to   fsm.State
}

// NewSystem builds a system from machines with pairwise-distinct roles. Every
// peer mentioned by a transition must be one of the system's roles.
func NewSystem(machines ...*fsm.FSM) (*System, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("kmc: empty system")
	}
	s := &System{}
	index := map[types.Role]int{}
	for _, m := range machines {
		if _, dup := index[m.Role()]; dup {
			return nil, fmt.Errorf("kmc: duplicate role %s", m.Role())
		}
		index[m.Role()] = len(s.machines)
		s.machines = append(s.machines, m)
		s.roles = append(s.roles, m.Role())
	}
	ids := map[message]int{}
	s.steps = make([][][]step, len(machines))
	for mi, m := range machines {
		var flat []step
		ends := make([]int, m.NumStates())
		for st := range ends {
			for _, t := range m.Transitions(fsm.State(st)) {
				peer, ok := index[t.Act.Peer]
				if !ok {
					return nil, fmt.Errorf("kmc: machine %s mentions unknown role %s", m.Role(), t.Act.Peer)
				}
				msg := message{label: t.Act.Label, sort: t.Act.Sort}
				id, ok := ids[msg]
				if !ok {
					id = len(s.msgs)
					ids[msg] = id
					s.msgs = append(s.msgs, msg)
				}
				flat = append(flat, step{send: t.Act.Dir == fsm.Send, peer: peer, msg: id, to: t.To})
			}
			ends[st] = len(flat)
		}
		s.steps[mi] = make([][]step, len(ends))
		start := 0
		for st, end := range ends {
			s.steps[mi][st] = flat[start:end:end]
			start = end
		}
	}
	s.accepts = make([]bool, len(s.msgs)*len(s.msgs))
	for a, ma := range s.msgs {
		for b, mb := range s.msgs {
			s.accepts[a*len(s.msgs)+b] = ma.label == mb.label && types.SubSort(ma.sort, mb.sort)
		}
	}
	return s, nil
}

// MustNewSystem is NewSystem but panics on error.
func MustNewSystem(machines ...*fsm.FSM) *System {
	s, err := NewSystem(machines...)
	if err != nil {
		panic(err)
	}
	return s
}

// Roles returns the system's roles in machine order.
func (s *System) Roles() []types.Role { return s.roles }

// uvarint decodes the uvarint at key[p:] and returns it with the offset just
// past it.
func uvarint(key string, p int) (v, next int) {
	for shift := 0; ; shift += 7 {
		b := key[p]
		p++
		v |= int(b&0x7f) << shift
		if b < 0x80 {
			return v, p
		}
	}
}

// config is a configuration decoded from its key: byte offsets into the key
// for every field, plus each machine's state and each queue's length and
// head. Queues are indexed sender*n + receiver.
type config struct {
	key    string
	states []fsm.State
	stAt   []int // stAt[i]: offset of machine i's state; stAt[n]: start of the queues
	qAt    []int // qAt[q]: offset of queue q's length; qAt[n*n]: len(key)
	qlen   []int
	qhead  []int // message id at the head of queue q, when qlen[q] > 0
}

func newConfig(n int) config {
	return config{
		states: make([]fsm.State, n),
		stAt:   make([]int, n+1),
		qAt:    make([]int, n*n+1),
		qlen:   make([]int, n*n),
		qhead:  make([]int, n*n),
	}
}

func (c *config) load(key string) {
	c.key = key
	n, p := len(c.states), 0
	for i := range c.states {
		c.stAt[i] = p
		var st int
		st, p = uvarint(key, p)
		c.states[i] = fsm.State(st)
	}
	c.stAt[n] = p
	for q := range c.qlen {
		c.qAt[q] = p
		c.qlen[q], p = uvarint(key, p)
		for j := 0; j < c.qlen[q]; j++ {
			var id int
			id, p = uvarint(key, p)
			if j == 0 {
				c.qhead[q] = id
			}
		}
	}
	c.qAt[n*n] = p
}

// edge is an explored move, threaded onto the list of moves into its target:
// machine by moved from configuration from; next is the previous edge into
// the same target, or -1.
type edge struct {
	from, by, next int32
}

// blocked is a send that the bound blocks in an expanded configuration and
// that the peer cannot make room for by receiving right away.
type blocked struct {
	config  int32
	machine int
	trans   int // index into the machine's transitions at its state
	peer    int
}

// explorer holds one breadth-first exploration under queue bound k.
type explorer struct {
	s    *System
	k, n int
	keys []string // configurations in discovery order
	ids  map[string]int32
	// seen[c] is len(keys) when c was dequeued: the Configs of a check that
	// stops at c.
	seen    []int32
	edges   []edge
	into    []int32 // into[c]: last edge into c, or -1
	blocked []blocked
	next    int // next configuration to expand
	cur     config
	buf     []byte
}

func newExplorer(s *System, k int) *explorer {
	n := len(s.machines)
	e := &explorer{s: s, k: k, n: n, ids: map[string]int32{}, cur: newConfig(n)}
	for _, m := range s.machines {
		e.buf = binary.AppendUvarint(e.buf, uint64(m.Initial()))
	}
	for range n * n {
		e.buf = append(e.buf, 0)
	}
	e.add(e.buf)
	return e
}

// add returns the index of the configuration with the given key, recording
// it if new.
func (e *explorer) add(key []byte) int32 {
	if c, ok := e.ids[string(key)]; ok {
		return c
	}
	c := int32(len(e.keys))
	k := string(key)
	e.ids[k] = c
	e.keys = append(e.keys, k)
	e.into = append(e.into, -1)
	return c
}

// successor writes into e.buf the key of the configuration after machine mi
// takes st in the loaded configuration: mi moves to st.to, and queue q gains
// st.msg at its tail (a send) or loses its head (a receive).
func (e *explorer) successor(mi int, st step, q int) []byte {
	c := &e.cur
	key := c.key
	b := append(e.buf[:0], key[:c.stAt[mi]]...)
	b = binary.AppendUvarint(b, uint64(st.to))
	b = append(b, key[c.stAt[mi+1]:c.qAt[q]]...)
	_, body := uvarint(key, c.qAt[q])
	if st.send {
		b = binary.AppendUvarint(b, uint64(c.qlen[q]+1))
		b = append(b, key[body:c.qAt[q+1]]...)
		b = binary.AppendUvarint(b, uint64(st.msg))
	} else {
		b = binary.AppendUvarint(b, uint64(c.qlen[q]-1))
		_, rest := uvarint(key, body)
		b = append(b, key[rest:c.qAt[q+1]]...)
	}
	b = append(b, key[c.qAt[q+1]:]...)
	e.buf = b
	return b
}

// queue returns the index of the queue st uses when machine mi takes it.
func (e *explorer) queue(mi int, st step) int {
	if st.send {
		return mi*e.n + st.peer
	}
	return st.peer*e.n + mi
}

// canReceive reports whether machine mi's receive st matches the head of its
// queue in the loaded configuration.
func (e *explorer) canReceive(mi int, st step) bool {
	q := st.peer*e.n + mi
	return e.cur.qlen[q] > 0 && e.s.accepts[e.cur.qhead[q]*len(e.s.msgs)+st.msg]
}

// enabled reports whether machine mi can take st in the loaded configuration
// under the queue bound.
func (e *explorer) enabled(mi int, st step) bool {
	if st.send {
		return e.cur.qlen[mi*e.n+st.peer] < e.k
	}
	return e.canReceive(mi, st)
}

// explore expands configurations in breadth-first order. With check set it
// runs the safety check on each configuration and records its blocked sends
// first, and stops at the first unsafe one, returning its index and the
// violation; the configuration stays unexpanded, so a later call resumes
// with it.
func (e *explorer) explore(check bool) (int, *Violation) {
	for ; e.next < len(e.keys); e.next++ {
		c := int32(e.next)
		e.cur.load(e.keys[c])
		if check {
			e.seen = append(e.seen, int32(len(e.keys)))
			if v := e.safety(); v != nil {
				return e.next, v
			}
			e.noteBlocked(c)
		}
		for mi := range e.n {
			for _, st := range e.s.steps[mi][e.cur.states[mi]] {
				if !e.enabled(mi, st) {
					continue
				}
				to := e.add(e.successor(mi, st, e.queue(mi, st)))
				e.edges = append(e.edges, edge{from: c, by: int32(mi), next: e.into[to]})
				e.into[to] = int32(len(e.edges) - 1)
			}
		}
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
	if k < 1 {
		k = 1
	}
	e := newExplorer(s, k)
	at, unsafe := e.explore(true)
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
	return Result{OK: true, Configs: len(e.keys)}
}

// safety classifies the loaded configuration if it is stuck or a queue
// heads with a message its receiver cannot accept.
func (e *explorer) safety() *Violation {
	s, c, n := e.s, &e.cur, e.n
	// Unspecified reception: machine mi has only receive transitions, none
	// enabled, and some expected sender's queue heads with a mismatch.
	for mi := range n {
		steps := s.steps[mi][c.states[mi]]
		stuck := len(steps) > 0
		for _, st := range steps {
			if st.send || e.canReceive(mi, st) {
				stuck = false
				break
			}
		}
		if !stuck {
			continue
		}
		for _, st := range steps {
			if q := st.peer*n + mi; c.qlen[q] > 0 {
				return &Violation{
					Kind:   UnspecifiedReception,
					Role:   s.roles[mi],
					Config: e.render(c.key),
					Detail: fmt.Sprintf("queue %s->%s heads with %s, expected one of %s", s.roles[st.peer], s.roles[mi], s.msgs[c.qhead[q]].label, expectedLabels(s.machines[mi].Transitions(c.states[mi]))),
				}
			}
		}
	}

	allFinal := true
	for mi := range n {
		for _, st := range s.steps[mi][c.states[mi]] {
			if e.enabled(mi, st) {
				return nil
			}
			allFinal = false
		}
	}
	queuesEmpty := true
	for _, l := range c.qlen {
		if l > 0 {
			queuesEmpty = false
			break
		}
	}
	switch {
	case allFinal && queuesEmpty:
		return nil // proper termination
	case allFinal:
		return &Violation{Kind: OrphanMessage, Role: s.roles[0], Config: e.render(c.key), Detail: "terminated with non-empty queues"}
	}
	// If some machine is blocked only by the queue bound (its send would
	// fire with an unbounded queue), the failure is a k-exhaustivity
	// violation, not a true deadlock.
	for mi := range n {
		for _, tr := range s.machines[mi].Transitions(c.states[mi]) {
			if tr.Act.Dir == fsm.Send {
				return &Violation{
					Kind:   NotExhaustive,
					Role:   s.roles[mi],
					Config: e.render(c.key),
					Detail: fmt.Sprintf("system halts with send %s blocked by the bound", tr.Act),
				}
			}
		}
	}
	for mi := range n {
		if len(s.steps[mi][c.states[mi]]) > 0 {
			return &Violation{Kind: Deadlock, Role: s.roles[mi], Config: e.render(c.key), Detail: "no machine can move"}
		}
	}
	return nil
}

// noteBlocked records the sends of the loaded configuration c that the bound
// blocks. A send whose peer can receive the head of the full queue right now
// is skipped: one step by the peer frees a slot.
func (e *explorer) noteBlocked(c int32) {
	s, cur, n := e.s, &e.cur, e.n
	for mi := range n {
		for ti, st := range s.steps[mi][cur.states[mi]] {
			q := mi*n + st.peer
			if !st.send || cur.qlen[q] < e.k {
				continue
			}
			head := s.msgs[cur.qhead[q]].label
			drainable := false
			for _, pt := range s.steps[st.peer][cur.states[st.peer]] {
				if !pt.send && pt.peer == mi && s.msgs[pt.msg].label == head {
					drainable = true
					break
				}
			}
			if !drainable {
				e.blocked = append(e.blocked, blocked{config: c, machine: mi, trans: ti, peer: st.peer})
			}
		}
	}
}

// firstStuck returns the first recorded blocked send, in exploration order,
// that no sequence of moves by the other machines in the explored graph can
// free.
func (e *explorer) firstStuck() (blocked, bool) {
	fire := make([][]bool, e.n*e.n)
	for _, b := range e.blocked {
		q := b.machine*e.n + b.peer
		if fire[q] == nil {
			fire[q] = e.drains(b.machine, q)
		}
		if !fire[q][b.config] {
			return b, true
		}
	}
	return blocked{}, false
}

// drains is the backward fixpoint for queue q, whose sender is machine mi:
// the explored configurations from which moves of machines other than mi
// reach one where q holds fewer than k messages.
func (e *explorer) drains(mi, q int) []bool {
	in := make([]bool, len(e.keys))
	var work []int32
	cur := newConfig(e.n)
	for c, key := range e.keys {
		if cur.load(key); cur.qlen[q] < e.k {
			in[c] = true
			work = append(work, int32(c))
		}
	}
	for len(work) > 0 {
		c := work[len(work)-1]
		work = work[:len(work)-1]
		for i := e.into[c]; i >= 0; i = e.edges[i].next {
			if ed := e.edges[i]; int(ed.by) != mi && !in[ed.from] {
				in[ed.from] = true
				work = append(work, ed.from)
			}
		}
	}
	return in
}

func (e *explorer) notExhaustive(b blocked) *Violation {
	e.cur.load(e.keys[b.config])
	tr := e.s.machines[b.machine].Transitions(e.cur.states[b.machine])[b.trans]
	return &Violation{
		Kind:   NotExhaustive,
		Role:   e.s.roles[b.machine],
		Config: e.render(e.cur.key),
		Detail: fmt.Sprintf("send %s can never fire within bound %d", tr.Act, e.k),
	}
}

// render prints a configuration key for diagnostics.
func (e *explorer) render(key string) string {
	var parts []string
	p := 0
	for i := range e.n {
		var st int
		st, p = uvarint(key, p)
		parts = append(parts, fmt.Sprintf("%s@%d", e.s.roles[i], st))
	}
	for q := range e.n * e.n {
		var l int
		l, p = uvarint(key, p)
		if l == 0 {
			continue
		}
		labels := make([]string, l)
		for j := range labels {
			var id int
			id, p = uvarint(key, p)
			labels[j] = string(e.s.msgs[id].label)
		}
		parts = append(parts, fmt.Sprintf("%s->%s:[%s]", e.s.roles[q/e.n], e.s.roles[q%e.n], strings.Join(labels, ",")))
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
// taken as 1, as Check takes k.
func CheckUpTo(s *System, maxK int) (int, Result) {
	if maxK < 1 {
		maxK = 1
	}
	var last Result
	for k := 1; k <= maxK; k++ {
		last = Check(s, k)
		if last.OK {
			return k, last
		}
	}
	return maxK, last
}
