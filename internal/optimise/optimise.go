package optimise

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/types"
)

// Options configures the search.
type Options struct {
	// MaxUnroll bounds the cumulative loop-pipelining depth per candidate
	// (the recursion-unrolling parameter d). Zero means DefaultMaxUnroll.
	MaxUnroll int
	// MaxPasses bounds how many rewrite steps may be composed (a candidate
	// at pass p is p single rewrites away from the original). Zero means
	// DefaultMaxPasses.
	MaxPasses int
	// MaxCandidates bounds the total number of distinct candidates explored.
	// Zero means DefaultMaxCandidates.
	MaxCandidates int
	// Bound overrides the core recursion-unrolling bound used for
	// certification. Zero derives a bound from MaxUnroll.
	Bound int
	// Trace records the certificate derivation of every certified candidate
	// (core.Options.Trace) — the machine-checked counterpart of the paper's
	// worked derivation trees, printed by cmd/optimise.
	Trace bool
}

// Search defaults: deep enough to reproduce every hand-written optimisation
// in the protocol registry (the FFT workers need three composed hoists).
const (
	DefaultMaxUnroll     = 2
	DefaultMaxPasses     = 4
	DefaultMaxCandidates = 256
)

func (o Options) withDefaults() Options {
	if o.MaxUnroll <= 0 {
		o.MaxUnroll = DefaultMaxUnroll
	}
	if o.MaxPasses <= 0 {
		o.MaxPasses = DefaultMaxPasses
	}
	if o.MaxCandidates <= 0 {
		o.MaxCandidates = DefaultMaxCandidates
	}
	if o.Bound <= 0 {
		// Pipelined candidates need roughly one extra revisit per hoisted
		// copy before the derivation cycle closes.
		o.Bound = core.DefaultBound + 2*o.MaxUnroll + 2
	}
	return o
}

// Candidate is one certified rewrite.
type Candidate struct {
	// Type is the rewritten (or original) local type.
	Type types.Local
	// Lookahead is the candidate's static lookahead score: the deepest
	// output anticipation in its certificate (core.Stats.MaxSendAhead).
	Lookahead int
	// Cert is the successful core.Check result certifying Type against the
	// original (including the derivation trace when Options.Trace is set).
	Cert core.Result
	// Steps lists the rewrites that produced the candidate, in order; empty
	// for the original type.
	Steps []string
	// Unrolls is the cumulative pipelining depth of the candidate.
	Unrolls int
	key     string // the α-canonical key (types.AlphaKey) of Type
}

// Result is the outcome of an optimisation run.
type Result struct {
	Role     types.Role
	Original types.Local
	// Baseline is the lookahead of the original against itself (0 for any
	// reordering-free type; kept explicit so callers need not special-case).
	Baseline int
	// Best is the highest-scoring certified candidate; it is the original
	// itself when no rewrite both certifies and improves the lookahead.
	Best Candidate
	// Improved reports that Best strictly beats the baseline lookahead.
	Improved bool
	// Considered counts the distinct candidates generated (certified or not).
	Considered int
	// Certified lists every certified candidate, best first (deterministic:
	// ties broken towards fewer unrolls, then fewer steps, then the
	// α-canonical rendering).
	Certified []Candidate
}

// derived is a search node: a candidate, its α-canonical key and its
// derivation.
type derived struct {
	t       types.Local
	key     string
	steps   []string
	unrolls int
}

// Optimise searches for the best certified AMR rewrite of orig for the given
// role. It never fails to produce a Best candidate: the original type is
// always in the certified set (reflexivity), so an empty search or a
// completely uncertifiable candidate pool degrades to "no optimisation".
func Optimise(role types.Role, orig types.Local, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := types.ValidateLocal(orig); err != nil {
		return Result{}, fmt.Errorf("optimise: %w", err)
	}
	s := getSearch()
	defer putSearch(s)
	return s.run(role, types.NormalizeLocal(orig), opts)
}

// search is the storage of one Optimise call, recycled through searches
// for the calls after it: the baseline and candidate machines, the
// certifier's visitor scratch, and the search's own tables. Nothing a
// Result holds points into it.
type search struct {
	msup, msub fsm.FSM
	sup        core.Supertype
	// seen holds the α-keys of the original and of every pooled candidate.
	seen map[string]struct{}
	pool []derived
	// kbuf is the key under construction; path the branch indices from the
	// frontier type's root to the site being visited.
	kbuf []byte
	path []int
	// moves holds the pipelines of the site being visited.
	moves []rewrite
	// certs holds the certified candidates until they are ranked through
	// order.
	certs []Candidate
	order []int
	// pairs is the largest history (candidate states × baseline states)
	// a check of this call filled: putSearch's measure of the storage.
	pairs int

	// The call's parameters, the frontier type being expanded and whether
	// its moves are keyed before they are built.
	opts     Options
	cur      derived
	keyFirst bool
	stepBuf  []string // the call's step lists are carved from it
}

// searches holds idle searches for the next calls, at most its capacity of
// them, each with a certifier history of at most pooledPairs cells and a
// pool of at most pooledCandidates: a call over machines of hundreds of
// states, or under a large MaxCandidates, frees its storage rather than
// pinning it for the small calls after it. As for k-MC's explorers, a
// channel rather than a sync.Pool hands storage to the next call whatever
// the collector did in between.
var searches = make(chan *search, 4)

// The bounds on a pooled search: pooledPairs history cells are 256 KiB;
// the machines are linear in their states, and the seen table and the
// certified list in the pool.
const (
	pooledPairs      = 32 << 10
	pooledCandidates = 1 << 10
)

func getSearch() *search {
	select {
	case s := <-searches:
		return s
	default:
		return &search{seen: make(map[string]struct{})}
	}
}

// putSearch returns s to searches unless it outgrew the bounds, first
// dropping the types and candidates the call left in its tables, so an
// idle search keeps no rewritten type alive.
func putSearch(s *search) {
	if s.pairs > pooledPairs || cap(s.pool) > pooledCandidates {
		return
	}
	clear(s.seen)
	clear(s.pool)
	clear(s.moves[:cap(s.moves)])
	clear(s.certs)
	s.pool, s.moves, s.certs = s.pool[:0], s.moves[:0], s.certs[:0]
	s.cur, s.stepBuf = derived{}, nil
	select {
	case searches <- s:
	default:
	}
}

func (s *search) run(role types.Role, orig types.Local, opts Options) (Result, error) {
	res := Result{Role: role, Original: orig}

	// Every candidate is certified against the same original machine, so
	// it is built and validated once.
	copts := core.Options{Bound: opts.Bound, Trace: opts.Trace}
	if err := s.msup.LoadLocal(role, orig); err != nil {
		return Result{}, fmt.Errorf("optimise: baseline check: %w", err)
	}
	if err := s.sup.Reset(&s.msup); err != nil {
		return Result{}, fmt.Errorf("optimise: baseline check: %w", err)
	}
	nSup := s.msup.NumStates()
	s.pairs = nSup * nSup
	baseline, err := s.sup.Check(&s.msup, copts)
	if err != nil {
		return Result{}, fmt.Errorf("optimise: baseline check: %w", err)
	}
	if !baseline.OK {
		// A type that is not even a subtype of itself within the bound has
		// no certifiable rewrites either.
		return Result{}, fmt.Errorf("optimise: role %s: original type failed its reflexive certificate (bound %d)", role, opts.Bound)
	}
	res.Baseline = baseline.Stats.MaxSendAhead

	// Breadth-first search over composed rewrites, deduplicated by
	// α-canonical key so differently named but equivalent derivations
	// collapse. Each pass's new candidates are appended to the pool in
	// order, so the next frontier is the pool's tail from the pass's start.
	s.opts = opts
	s.kbuf = types.AppendAlphaKey(s.kbuf[:0], orig)
	origKey := string(s.kbuf)
	s.seen[origKey] = struct{}{}
	lo, hi := -1, 0 // the frontier: the original, then pool[lo:hi]
	for pass := 0; pass < opts.MaxPasses && lo < hi; pass++ {
		start := len(s.pool)
		if lo < 0 {
			_, changed := straightened(orig)
			if !s.expand(derived{t: orig, key: origKey}, !changed) {
				break
			}
		} else if !s.expandRange(lo, hi) {
			break
		}
		lo, hi = start, len(s.pool)
	}
	res.Considered = len(s.pool)

	// Certify. Candidates that are not well-formed (a rewrite can in
	// principle produce a non-contractive shape, which LoadLocal's
	// validation rejects) or not asynchronous subtypes of the original are
	// discarded — an uncertified rewrite is a bug, never an output. Each
	// keeps the α-canonical key the search deduplicated it by, for the
	// ranking's last tie-break.
	s.certs = append(s.certs, Candidate{Type: orig, Lookahead: res.Baseline, Cert: baseline, key: origKey})
	for i := range s.pool {
		d := &s.pool[i]
		if s.msub.LoadLocal(role, d.t) != nil {
			continue
		}
		s.pairs = max(s.pairs, s.msub.NumStates()*nSup)
		cert, err := s.sup.Check(&s.msub, copts)
		if err != nil || !cert.OK {
			continue
		}
		s.certs = append(s.certs, Candidate{
			Type:      d.t,
			Lookahead: cert.Stats.MaxSendAhead,
			Cert:      cert,
			Steps:     d.steps,
			Unrolls:   d.unrolls,
			key:       d.key,
		})
	}
	s.order = s.order[:0]
	for i := range s.certs {
		s.order = append(s.order, i)
	}
	slices.SortStableFunc(s.order, func(i, j int) int { return rank(&s.certs[i], &s.certs[j]) })
	res.Certified = make([]Candidate, len(s.order))
	for i, j := range s.order {
		res.Certified[i] = s.certs[j]
	}
	res.Best = res.Certified[0]
	res.Improved = res.Best.Lookahead > res.Baseline
	return res, nil
}

// rank orders certified candidates best first: by lookahead, then fewer
// unrolls, then fewer steps, then the α-canonical key, comparing keys only
// on a tie.
func rank(a, b *Candidate) int {
	if c := cmp.Compare(b.Lookahead, a.Lookahead); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Unrolls, b.Unrolls); c != 0 {
		return c
	}
	if c := cmp.Compare(len(a.Steps), len(b.Steps)); c != 0 {
		return c
	}
	return strings.Compare(a.key, b.key)
}

// expandRange expands the frontier pool[lo:hi], reporting false once the
// pool is full. Pool entries are straight by construction (see expand).
func (s *search) expandRange(lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if !s.expand(s.pool[i], true) {
			return false
		}
	}
	return true
}

// expand offers every move of cur to the pool, in a fixed order: the hoists
// at cur's sites in pre-order, then the pipelines at depth 1, 2, … up to
// the unroll budget left, each in pre-order. It reports false, and stops,
// once the pool is full.
//
// The moves of a straight cur (one straighten leaves unchanged) are keyed
// before they are built. A move replaces one site with a subterm that
// starts with a send, puts no μ directly under another, keeps every
// variable occurrence and binds no μ without using it: a hoist only
// commutes an output past an input, and a pipeline keeps the loop's body
// and variable. So the moved type is straight too, its own straightened
// form, and its key can be written from cur with the site substituted
// (DESIGN.md, "The certified AMR search"). Only a key not seen before pays
// for building the type and its step. Pool entries are straight by
// construction, since straighten leaves no μ directly under a μ and no
// binder unused; only an original that is not straight takes the build →
// straighten → key path.
func (s *search) expand(cur derived, straight bool) bool {
	s.cur, s.keyFirst = cur, straight
	s.path = s.path[:0]
	if !s.walk(cur.t, 0) {
		return false
	}
	for d := 1; d <= s.opts.MaxUnroll-cur.unrolls; d++ {
		if !s.walk(cur.t, d) {
			return false
		}
	}
	return true
}

// walk visits n and then its subterms in pre-order, with s.path the route
// from the frontier type's root to the one visited, offering the hoist
// there (d = 0) or the depth-d pipelines. It reports false once the pool is
// full.
func (s *search) walk(n types.Local, d int) bool {
	if d == 0 {
		if r, ok := hoistNode(n); ok && !s.offer(r) {
			return false
		}
	} else {
		s.moves = pipelineNode(s.moves[:0], n, d)
		for _, r := range s.moves {
			if !s.offer(r) {
				return false
			}
		}
	}
	var bs []types.Branch
	switch n := n.(type) {
	case types.Rec:
		s.path = append(s.path, 0)
		ok := s.walk(n.Body, d)
		s.path = s.path[:len(s.path)-1]
		return ok
	case types.Send:
		bs = n.Branches
	case types.Recv:
		bs = n.Branches
	}
	for i := range bs {
		s.path = append(s.path, i)
		ok := s.walk(bs[i].Cont, d)
		s.path = s.path[:len(s.path)-1]
		if !ok {
			return false
		}
	}
	return true
}

// offer adds the rewrite r at the current site to the pool unless its
// α-key was seen, reporting false once the pool is full.
func (s *search) offer(r rewrite) bool {
	var cand types.Local
	if s.keyFirst {
		s.kbuf = types.AppendAlphaKeyAt(s.kbuf[:0], s.cur.t, s.path, r.t)
		if _, dup := s.seen[string(s.kbuf)]; dup {
			return true
		}
		cand = replaceAt(s.cur.t, s.path, r.t)
	} else {
		cand = straighten(replaceAt(s.cur.t, s.path, r.t))
		s.kbuf = types.AppendAlphaKey(s.kbuf[:0], cand)
		if _, dup := s.seen[string(s.kbuf)]; dup {
			return true
		}
	}
	key := string(s.kbuf)
	s.seen[key] = struct{}{}
	s.pool = append(s.pool, derived{
		t:       cand,
		key:     key,
		steps:   s.stepsAfter(s.cur.steps, r.desc()),
		unrolls: s.cur.unrolls + r.unrolls,
	})
	return len(s.pool) < s.opts.MaxCandidates
}

// stepsAfter returns the step list prev followed by step, carved from the
// call's step buffer with its capacity capped, so no two lists share a
// slot. A spent buffer is replaced by one twice its size, so a small
// search allocates little and a large one few times.
func (s *search) stepsAfter(prev []string, step string) []string {
	n := len(prev) + 1
	if cap(s.stepBuf)-len(s.stepBuf) < n {
		s.stepBuf = make([]string, 0, max(n, 2*cap(s.stepBuf), 8))
	}
	lo := len(s.stepBuf)
	s.stepBuf = append(append(s.stepBuf, prev...), step)
	return s.stepBuf[lo:len(s.stepBuf):len(s.stepBuf)]
}
