package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/fsm"
	"repro/internal/types"
)

// DefaultBound is the default number of times a pair of states may be
// revisited along one derivation path. Looping protocols close their cycle
// within two visits of the loop head, so a small bound suffices in practice;
// raise it for deeply unrolled optimisations.
const DefaultBound = 8

// Options configures the algorithm.
type Options struct {
	// Bound is the recursion-unrolling bound n. Zero means DefaultBound.
	Bound int
	// NoFailFast disables the fail-early reduction check of Appendix B.5
	// (used for benchmarking its effect; results are unchanged).
	NoFailFast bool
	// Trace records the derivation (which Fig. 5 rules fired, with the
	// prefixes at each step) into Result.Trace — the executable counterpart
	// of the paper's worked derivation trees.
	Trace bool
}

// Stats reports the work performed by a call to Check.
type Stats struct {
	Visits     int // number of visit steps (proof-tree nodes explored)
	Reductions int // number of prefix reduction steps applied
	MaxPrefix  int // high-water mark of live prefix length
	// MaxSendAhead is the deepest output anticipation observed: the largest
	// number of pending supertype actions a subtype send overtook when its
	// reduction matched (the entries the reordering sequence B(p) skipped).
	// It is 0 when the candidate performs no reordering, 1 for a single
	// hoisted send, and grows with the unroll depth of a pipelined source —
	// the static counterpart of the queue high-water mark that
	// sim.Result.MaxQueue observes dynamically, and the lookahead score the
	// optimiser ranks AMR candidates by.
	MaxSendAhead int
}

// Result is the outcome of a subtyping check.
type Result struct {
	OK    bool
	Stats Stats
	// Trace holds the derivation log when Options.Trace was set.
	Trace []string
}

// ErrNotDirected is returned when a machine mixes directions or peers within
// one state, which the local-type syntax of Definition 1 cannot express.
var ErrNotDirected = errors.New("core: machine is not directed (mixed send/receive or peers within a state)")

// ErrUnknownSort is returned when a machine's actions carry a payload sort
// nobody registered: neither a built-in scalar, a types.RegisterSort entry,
// nor a vector over a known element sort. Certifying a protocol whose sorts
// have no meaning would let a typo (vec<f65>) sail through verification and
// surface only as an `any`-typed generated API, so the checker refuses.
var ErrUnknownSort = errors.New("core: machine carries an unregistered payload sort (see types.RegisterSort)")

// unknownSorts returns the unregistered payload sorts on m's reachable
// transitions, in deterministic order without duplicates.
func unknownSorts(m *fsm.FSM) []types.Sort {
	var out []types.Sort
	for s := 0; s < m.NumStates(); s++ {
		for _, t := range m.Transitions(fsm.State(s)) {
			if !types.KnownSort(t.Act.Sort) && !slices.Contains(out, t.Act.Sort) {
				out = append(out, t.Act.Sort)
			}
		}
	}
	return out
}

// validate rejects a machine the checker cannot relate: one that is not
// directed, or that carries an unregistered payload sort.
func validate(m *fsm.FSM, what string) error {
	if !m.Directed() {
		return fmt.Errorf("%w: %s %s", ErrNotDirected, what, m.Role())
	}
	if bad := unknownSorts(m); len(bad) > 0 {
		return fmt.Errorf("%w: %s %s carries %v", ErrUnknownSort, what, m.Role(), bad)
	}
	return nil
}

// Check reports whether sub is an asynchronous subtype of sup.
func Check(sub, sup *fsm.FSM, opts Options) (Result, error) {
	if err := validate(sub, "candidate subtype"); err != nil {
		return Result{}, err
	}
	if err := validate(sup, "supertype"); err != nil {
		return Result{}, err
	}
	v := visitor{sup: sup}
	return v.relate(sub, opts), nil
}

// Supertype is a supertype machine validated once, for checking many
// candidate subtypes against it: the optimiser certifies every rewrite of a
// local type against the same original. It owns one visitor scratch (the
// history matrix, the prefixes, ρ and the assumption stack) that every Check
// on it reuses, so a Supertype is not safe for concurrent use.
type Supertype struct{ v visitor }

// NewSupertype validates sup as Check does.
func NewSupertype(sup *fsm.FSM) (*Supertype, error) {
	if err := validate(sup, "supertype"); err != nil {
		return nil, err
	}
	return &Supertype{v: visitor{sup: sup}}, nil
}

// Check reports whether sub is an asynchronous subtype of the supertype; it
// is Check(sub, sup, opts) without revalidating sup.
func (s *Supertype) Check(sub *fsm.FSM, opts Options) (Result, error) {
	if err := validate(sub, "candidate subtype"); err != nil {
		return Result{}, err
	}
	return s.v.relate(sub, opts), nil
}

// relate resets the visitor's scratch for sub against v.sup, keeping every
// buffer's capacity, and runs the derivation from the initial pair.
func (v *visitor) relate(sub *fsm.FSM, opts Options) Result {
	bound := opts.Bound
	if bound <= 0 {
		bound = DefaultBound
	}
	bound = min(bound, math.MaxInt32)
	v.sub = sub
	v.nSup = v.sup.NumStates()
	n := sub.NumStates() * v.nSup
	v.history = slices.Grow(v.history[:0], n)[:n]
	for i := range v.history {
		v.history[i] = previous{visits: int32(bound)}
	}
	v.pre[0].reset()
	v.pre[1].reset()
	v.rho = v.rho[:0]
	v.asms = v.asms[:0]
	v.failFast = !opts.NoFailFast
	v.stats = Stats{}
	v.tr = nil
	if opts.Trace {
		v.tr = &tracer{}
	}
	ok := v.visit(sub.Initial(), v.sup.Initial())
	res := Result{OK: ok, Stats: v.stats}
	if v.tr != nil {
		res.Trace = v.tr.lines
		v.tr = nil
	}
	return res
}

// CheckTypes is Check on local types: both are converted to machines for the
// given role first.
func CheckTypes(role types.Role, sub, sup types.Local, opts Options) (Result, error) {
	msub, err := fsm.FromLocal(role, sub)
	if err != nil {
		return Result{}, fmt.Errorf("core: subtype: %w", err)
	}
	msup, err := fsm.FromLocal(role, sup)
	if err != nil {
		return Result{}, fmt.Errorf("core: supertype: %w", err)
	}
	return Check(msub, msup, opts)
}

// previous is one cell of the history matrix: the remaining visit budget for
// a pair of states and, when the pair is on the current derivation path, the
// assumption made at its last visit, as a 1-based index into the visitor's
// assumption stack (0: none).
type previous struct {
	visits int32
	asm    int32
}

// assumption corresponds to one entry of the map Σ of Fig. 5: it is keyed by
// the state pair (implicitly, by being named from the pair's history cell)
// together with the prefixes at assumption time (the snapshots), and stores
// ρ (here: the log length, from which ρ' — the subtype actions performed
// since — is derived). The stack holds one per visit on the current
// derivation path.
type assumption struct {
	sub, sup snapshot
	rhoLen   int
}

type visitor struct {
	sub, sup *fsm.FSM
	nSup     int
	history  []previous    // nSub×nSup, row-major by subtype state
	pre      [2]prefix     // 0: subtype prefix π, 1: supertype prefix π′
	rho      []*fsm.Action // the subtype actions on the path, in the machine
	asms     []assumption
	failFast bool
	stats    Stats
	tr       *tracer
}

// visit implements one derivation step for ⟨π, T, n⟩ ≤ ⟨π′, T′, n′⟩ where T
// and T′ are the states ls and rs. It mutates the prefixes; the caller
// restores them via snapshots after the call returns.
func (v *visitor) visit(ls, rs fsm.State) bool {
	v.stats.Visits++
	// High-water mark of the prefix windows (an upper bound on live length;
	// exact counting would rescan both prefixes on every visit).
	if n := len(v.pre[0].entries) - v.pre[0].start + len(v.pre[1].entries) - v.pre[1].start; n > v.stats.MaxPrefix {
		v.stats.MaxPrefix = n
	}

	v.traceVisit(ls, rs)

	// (1) Reduce the pair of prefixes ([sub] with rules ⤳i, ⤳o, ⤳A, ⤳B).
	if !v.reduce() {
		v.traceRule("[sub]", "fail-early: blocked head can never reduce")
		return false // fail-early: a head can never be matched
	}

	prev := &v.history[int(ls)*v.nSup+int(rs)]

	// (2) Assumption rule [asm]: the same state pair is an ancestor on the
	// path with identical live prefixes, and the subtype has performed a
	// superset of the supertype's pending actions since (act(ρ′) ⊇ act(π′)).
	if prev.asm > 0 {
		a := &v.asms[prev.asm-1]
		if v.pre[0].liveEqualAt(a.sub) && v.pre[1].liveEqualAt(a.sup) && v.actCheck(a) {
			v.traceRule("[asm]", "assumption matches; act(ρ′) ⊇ act(π′)")
			return true
		}
	}

	ltr, rtr := v.sub.Transitions(ls), v.sup.Transitions(rs)

	// (3) Termination rule [end].
	if len(ltr) == 0 && len(rtr) == 0 {
		ok := v.pre[0].empty() && v.pre[1].empty()
		if ok {
			v.traceRule("[end]", "both terminal with empty prefixes")
		} else {
			v.traceRule("[end]", "terminal with pending prefixes: reject")
		}
		return ok
	}
	if len(ltr) == 0 || len(rtr) == 0 {
		v.traceRule("[end]", "one side terminal, the other not: reject")
		return false
	}

	// (4) Recursion-unrolling bound ([μl]/[μr] with n = 0).
	if prev.visits <= 0 {
		v.traceRule("[μ]", "recursion bound exhausted")
		return false
	}

	// (5) Pop one action from each machine and push it onto the prefixes,
	// per rules [oi], [oo], [ii], [io]. The pair's assumption lives on the
	// stack until this visit returns.
	saved := *prev
	prev.visits--
	v.asms = append(v.asms, assumption{sub: v.pre[0].snapshot(), sup: v.pre[1].snapshot(), rhoLen: len(v.rho)})
	prev.asm = int32(len(v.asms))
	ok := v.expand(ltr, rtr)
	v.asms = v.asms[:len(v.asms)-1]
	*prev = saved
	return ok
}

// expand applies the rule for the direction pair of the current states'
// transitions ltr and rtr, visiting the successor pairs it quantifies over.
func (v *visitor) expand(ltr, rtr []fsm.Transition) bool {
	subOut := ltr[0].Act.Dir == fsm.Send
	supOut := rtr[0].Act.Dir == fsm.Send
	rule := ruleName(subOut, supOut)

	try := func(lt, rt *fsm.Transition) bool {
		subSnap, supSnap, rhoLen := v.pre[0].snapshot(), v.pre[1].snapshot(), len(v.rho)
		v.pre[0].push(&lt.Act)
		v.pre[1].push(&rt.Act)
		v.rho = append(v.rho, &lt.Act)
		if v.tr != nil {
			v.traceRule(rule, fmt.Sprintf("push %s / %s", lt.Act, rt.Act))
		}
		v.tr.push()
		ok := v.visit(lt.To, rt.To)
		v.tr.pop()
		v.pre[0].restore(subSnap)
		v.pre[1].restore(supSnap)
		v.rho = v.rho[:rhoLen]
		return ok
	}
	switch {
	case subOut && !supOut: // [oi]: ∀i ∀j
		for i := range ltr {
			for j := range rtr {
				if !try(&ltr[i], &rtr[j]) {
					return false
				}
			}
		}
		return true
	case subOut && supOut: // [oo]: ∀i ∃j
		for i := range ltr {
			ok := false
			for j := range rtr {
				if try(&ltr[i], &rtr[j]) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	case !subOut && !supOut: // [ii]: ∀j ∃i
		for j := range rtr {
			ok := false
			for i := range ltr {
				if try(&ltr[i], &rtr[j]) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	default: // [io]: ∃i ∃j
		for i := range ltr {
			for j := range rtr {
				if try(&ltr[i], &rtr[j]) {
					return true
				}
			}
		}
		return false
	}
}

// actCheck verifies act(ρ′) ⊇ act(π′): every pending supertype action's
// (direction, peer) occurs among the subtype actions performed since the
// assumption. This is the side condition of [asm] preventing "forgotten"
// interactions (Appendix B.3, Fig. A.14).
func (v *visitor) actCheck(a *assumption) bool {
	rho := v.rho[a.rhoLen:]
	sup := &v.pre[1]
	for i := sup.start; i < len(sup.entries); i++ {
		e := &sup.entries[i]
		if e.removed {
			continue
		}
		found := false
		for j := range rho {
			if rho[j].Dir == e.act.Dir && rho[j].Peer == e.act.Peer {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// reduce applies the prefix reduction rules of Definition 3 until no rule
// applies. It returns false when fail-fast is enabled and the subtype prefix
// head is permanently blocked: a matching action can never appear before the
// blocker, because prefixes only grow at the tail.
func (v *visitor) reduce() bool {
	l, r := &v.pre[0], &v.pre[1]
	for {
		if l.empty() {
			return true
		}
		h := l.head()
		idx, skipped, blocked := findMatch(r, h)
		if blocked {
			if v.failFast {
				return false
			}
			return true
		}
		if idx < 0 {
			return true // cannot reduce yet; more supertype actions may arrive
		}
		v.stats.Reductions++
		if h.Dir == fsm.Send && skipped > v.stats.MaxSendAhead {
			v.stats.MaxSendAhead = skipped
		}
		l.popHead()
		r.removeAt(idx)
	}
}

// findMatch scans the supertype prefix for the first live transition matching
// head h, skipping exactly the transitions the reordering sequences A(p) and
// B(p) permit. It returns the match index, or -1 if the scan ran off the end,
// the number of live transitions skipped before the match (the anticipation
// depth feeding Stats.MaxSendAhead), and blocked = true if an unskippable
// transition was found first.
//
//	h = p?ℓ: skip receives not from p (A(p)); blockers are any send, and any
//	         receive from p that does not match.
//	h = p!ℓ: skip all receives and sends not to p (B(p)); blockers are sends
//	         to p that do not match.
func findMatch(r *prefix, h *fsm.Action) (int, int, bool) {
	skipped := 0
	for i := r.start; i < len(r.entries); i++ {
		e := &r.entries[i]
		if e.removed {
			continue
		}
		a := e.act
		if a.Dir == h.Dir && a.Peer == h.Peer {
			if a.Label == h.Label && sortOK(h, a) {
				return i, skipped, false
			}
			// Same peer and direction but a different label (or an
			// incompatible sort): this can never be skipped by A/B.
			return -1, skipped, true
		}
		if h.Dir == fsm.Recv && a.Dir == fsm.Send {
			return -1, skipped, true // sends block input anticipation
		}
		// Otherwise skippable: a receive (any peer ≠ p for inputs, any peer
		// for outputs) or, for outputs, a send to a different peer.
		skipped++
	}
	return -1, skipped, false
}

// sortOK checks payload-sort compatibility between the subtype's action h and
// the supertype's action a: outputs are covariant (the subtype may send a
// smaller sort), inputs contravariant (the subtype may accept a larger sort).
func sortOK(h, a *fsm.Action) bool {
	if h.Dir == fsm.Send {
		return types.SubSort(h.Sort, a.Sort)
	}
	return types.SubSort(a.Sort, h.Sort)
}
