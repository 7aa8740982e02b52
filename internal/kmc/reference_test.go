package kmc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fsm"
	"repro/internal/types"
)

// This file keeps the straightforward k-MC checker as a test-only reference
// for the production one in kmc.go, the way internal/theory serves
// internal/core. It stores each configuration as explicit per-machine states
// and per-queue message slices, cloned on every move, keys the visited set
// on a printed rendering, and decides exhaustivity per configuration with a
// fresh depth-first search over the other machines' moves. The production
// checker must agree with it on every verdict, on the k CheckUpTo returns,
// and on the reported violation and Configs count (differential_test.go).

// ReferenceCheck is Check computed by the reference checker.
func ReferenceCheck(s *System, k int) Result { return newRefSystem(s).check(k) }

// ReferenceCheckUpTo is CheckUpTo computed by the reference checker, for
// maxK >= 1.
func ReferenceCheckUpTo(s *System, maxK int) (int, Result) { return newRefSystem(s).checkUpTo(maxK) }

// refSystem views a System's machines the way the reference checker needs:
// transitions straight from the FSMs and peers resolved through a map.
type refSystem struct {
	machines []*fsm.FSM
	roles    []types.Role
	index    map[types.Role]int
}

func newRefSystem(s *System) *refSystem {
	r := &refSystem{machines: s.machines, roles: s.roles, index: map[types.Role]int{}}
	for i, role := range s.roles {
		r.index[role] = i
	}
	return r
}

// refMessage is one queued message.
type refMessage struct {
	label types.Label
	sort  types.Sort
}

// refConfig is a global configuration: one control state per machine plus the
// contents of each ordered-pair queue (indexed sender*n + receiver).
type refConfig struct {
	states []fsm.State
	queues [][]refMessage
}

func (s *refSystem) initial() *refConfig {
	n := len(s.machines)
	c := &refConfig{states: make([]fsm.State, n), queues: make([][]refMessage, n*n)}
	for i, m := range s.machines {
		c.states[i] = m.Initial()
	}
	return c
}

func (c *refConfig) clone() *refConfig {
	out := &refConfig{states: append([]fsm.State(nil), c.states...), queues: make([][]refMessage, len(c.queues))}
	for i, q := range c.queues {
		if len(q) > 0 {
			out.queues[i] = append([]refMessage(nil), q...)
		}
	}
	return out
}

// key renders a canonical string identity for the visited set. This runs
// once per explored configuration, so it avoids fmt.
func (c *refConfig) key() string {
	b := make([]byte, 0, 8*len(c.states))
	for _, st := range c.states {
		b = strconv.AppendInt(b, int64(st), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	for i, q := range c.queues {
		if len(q) == 0 {
			continue
		}
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ':')
		for _, m := range q {
			b = append(b, m.label...)
			b = append(b, '(')
			b = append(b, m.sort...)
			b = append(b, ')', ';')
		}
	}
	return string(b)
}

func (s *refSystem) render(c *refConfig) string {
	var parts []string
	for i, st := range c.states {
		parts = append(parts, fmt.Sprintf("%s@%d", s.roles[i], st))
	}
	for i, q := range c.queues {
		if len(q) == 0 {
			continue
		}
		var labels []string
		for _, m := range q {
			labels = append(labels, string(m.label))
		}
		parts = append(parts, fmt.Sprintf("%s->%s:[%s]", s.roles[i/len(s.machines)], s.roles[i%len(s.machines)], strings.Join(labels, ",")))
	}
	return "⟨" + strings.Join(parts, " ") + "⟩"
}

// move is one enabled step: machine mi takes transition tr.
type move struct {
	mi int
	tr fsm.Transition
}

// enabledMoves lists the machine steps enabled in c under queue bound k.
func (s *refSystem) enabledMoves(c *refConfig, k int) []move {
	var out []move
	for mi := range s.machines {
		for _, tr := range s.machines[mi].Transitions(c.states[mi]) {
			if s.enabled(c, k, mi, tr) {
				out = append(out, move{mi: mi, tr: tr})
			}
		}
	}
	return out
}

func (s *refSystem) enabled(c *refConfig, k int, mi int, tr fsm.Transition) bool {
	peer := s.index[tr.Act.Peer]
	n := len(s.machines)
	if tr.Act.Dir == fsm.Send {
		return len(c.queues[mi*n+peer]) < k
	}
	q := c.queues[peer*n+mi]
	return len(q) > 0 && q[0].label == tr.Act.Label && types.SubSort(q[0].sort, tr.Act.Sort)
}

// apply returns the configuration after machine mi takes tr. The caller must
// have checked enabledness.
func (s *refSystem) apply(c *refConfig, mi int, tr fsm.Transition) *refConfig {
	out := c.clone()
	n := len(s.machines)
	peer := s.index[tr.Act.Peer]
	if tr.Act.Dir == fsm.Send {
		qi := mi*n + peer
		out.queues[qi] = append(out.queues[qi], refMessage{label: tr.Act.Label, sort: tr.Act.Sort})
	} else {
		qi := peer*n + mi
		out.queues[qi] = out.queues[qi][1:]
		if len(out.queues[qi]) == 0 {
			out.queues[qi] = nil
		}
	}
	out.states[mi] = tr.To
	return out
}

// Check explores every configuration reachable under queue bound k and
// verifies k-safety and k-exhaustivity. k must be at least 1.
func (s *refSystem) check(k int) Result {
	if k < 1 {
		k = 1
	}
	init := s.initial()
	visited := map[string]*refConfig{init.key(): init}
	queue := []*refConfig{init}

	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]

		moves := s.enabledMoves(c, k)
		if v := s.checkSafety(c, moves); v != nil {
			return Result{OK: false, Violation: v, Configs: len(visited)}
		}
		if v := s.checkExhaustivity(c, k); v != nil {
			return Result{OK: false, Violation: v, Configs: len(visited)}
		}
		for _, m := range moves {
			next := s.apply(c, m.mi, m.tr)
			key := next.key()
			if _, seen := visited[key]; !seen {
				visited[key] = next
				queue = append(queue, next)
			}
		}
	}
	return Result{OK: true, Configs: len(visited)}
}

// checkSafety classifies stuck configurations and unexpected queue heads.
func (s *refSystem) checkSafety(c *refConfig, moves []move) *Violation {
	// Unspecified reception: machine mi has only receive transitions, none
	// enabled, and some expected sender's queue heads with a mismatch.
	n := len(s.machines)
	for mi := range s.machines {
		ts := s.machines[mi].Transitions(c.states[mi])
		if len(ts) == 0 {
			continue
		}
		anyEnabled := false
		allRecv := true
		for _, tr := range ts {
			if tr.Act.Dir != fsm.Recv {
				allRecv = false
			}
			if s.enabled(c, 1<<30, mi, tr) { // sends always enabled for this test
				anyEnabled = true
			}
		}
		if !allRecv || anyEnabled {
			continue
		}
		for _, tr := range ts {
			peer := s.index[tr.Act.Peer]
			q := c.queues[peer*n+mi]
			if len(q) > 0 {
				return &Violation{
					Kind:   UnspecifiedReception,
					Role:   s.roles[mi],
					Config: s.render(c),
					Detail: fmt.Sprintf("queue %s->%s heads with %s, expected one of %s", tr.Act.Peer, s.roles[mi], q[0].label, refExpectedLabels(ts)),
				}
			}
		}
	}

	if len(moves) > 0 {
		return nil
	}
	allFinal := true
	for mi := range s.machines {
		if !s.machines[mi].IsFinal(c.states[mi]) {
			allFinal = false
			break
		}
	}
	queuesEmpty := true
	for _, q := range c.queues {
		if len(q) > 0 {
			queuesEmpty = false
			break
		}
	}
	switch {
	case allFinal && queuesEmpty:
		return nil // proper termination
	case allFinal:
		return &Violation{Kind: OrphanMessage, Role: s.roles[0], Config: s.render(c), Detail: "terminated with non-empty queues"}
	default:
		// If some machine is blocked only by the queue bound (its send would
		// fire with an unbounded queue), the failure is a k-exhaustivity
		// violation, not a true deadlock.
		for mi := range s.machines {
			for _, tr := range s.machines[mi].Transitions(c.states[mi]) {
				if tr.Act.Dir == fsm.Send {
					return &Violation{
						Kind:   NotExhaustive,
						Role:   s.roles[mi],
						Config: s.render(c),
						Detail: fmt.Sprintf("system halts with send %s blocked by the bound", tr.Act),
					}
				}
			}
		}
		for mi := range s.machines {
			if !s.machines[mi].IsFinal(c.states[mi]) {
				return &Violation{Kind: Deadlock, Role: s.roles[mi], Config: s.render(c), Detail: "no machine can move"}
			}
		}
		return nil
	}
}

// checkExhaustivity verifies that each send available in c (at the automaton
// level) is fireable after finitely many moves of the *other* machines.
func (s *refSystem) checkExhaustivity(c *refConfig, k int) *Violation {
	for mi := range s.machines {
		for _, tr := range s.machines[mi].Transitions(c.states[mi]) {
			if tr.Act.Dir != fsm.Send || s.enabled(c, k, mi, tr) {
				continue
			}
			// Fast path: the blocking queue's receiver can consume its head
			// right now, so one step by the peer frees a slot.
			peer := s.index[tr.Act.Peer]
			q := c.queues[mi*len(s.machines)+peer]
			drainable := false
			for _, pt := range s.machines[peer].Transitions(c.states[peer]) {
				if pt.Act.Dir == fsm.Recv && pt.Act.Peer == s.roles[mi] && len(q) > 0 && pt.Act.Label == q[0].label {
					drainable = true
					break
				}
			}
			if drainable {
				continue
			}
			if !s.fireableEventually(c, k, mi, tr) {
				return &Violation{
					Kind:   NotExhaustive,
					Role:   s.roles[mi],
					Config: s.render(c),
					Detail: fmt.Sprintf("send %s can never fire within bound %d", tr.Act, k),
				}
			}
		}
	}
	return nil
}

// fireableEventually searches configurations reachable from c by moves of
// machines other than mi for one where tr is enabled.
func (s *refSystem) fireableEventually(c *refConfig, k int, mi int, tr fsm.Transition) bool {
	visited := map[string]bool{c.key(): true}
	stack := []*refConfig{c}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.enabled(cur, k, mi, tr) {
			return true
		}
		for _, m := range s.enabledMoves(cur, k) {
			if m.mi == mi {
				continue
			}
			next := s.apply(cur, m.mi, m.tr)
			key := next.key()
			if !visited[key] {
				visited[key] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

func refExpectedLabels(ts []fsm.Transition) string {
	var out []string
	for _, t := range ts {
		out = append(out, string(t.Act.Label))
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}

// CheckUpTo tries k = 1..maxK in turn and returns the first bound for which
// the system is k-MC, mirroring how the k-MC tool is used in practice. It
// returns the failing result for maxK when none succeeds.
func (s *refSystem) checkUpTo(maxK int) (int, Result) {
	var last Result
	for k := 1; k <= maxK; k++ {
		last = s.check(k)
		if last.OK {
			return k, last
		}
	}
	return maxK, last
}
