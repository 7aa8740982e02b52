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
	orig = types.NormalizeLocal(orig)

	res := Result{Role: role, Original: orig}

	// Every candidate is certified against the same original machine, so
	// it is built and validated once.
	copts := core.Options{Bound: opts.Bound, Trace: opts.Trace}
	msup, err := fsm.FromLocal(role, orig)
	if err != nil {
		return Result{}, fmt.Errorf("optimise: baseline check: %w", err)
	}
	sup, err := core.NewSupertype(msup)
	if err != nil {
		return Result{}, fmt.Errorf("optimise: baseline check: %w", err)
	}
	baseline, err := sup.Check(msup, copts)
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
	// α-canonical rendering so differently named but equivalent derivations
	// collapse.
	var kbuf []byte // one buffer for every candidate's key
	kbuf = types.AppendAlphaKey(kbuf, orig)
	origKey := string(kbuf)
	seen := map[string]bool{origKey: true}
	// Each pass's new candidates are appended to the pool in order, so
	// the next frontier is the pool's tail from the pass's start.
	frontier := []derived{{t: orig, key: origKey}}
	var pool []derived
	for pass := 0; pass < opts.MaxPasses && len(frontier) > 0 && len(pool) < opts.MaxCandidates; pass++ {
		start := len(pool)
		for _, cur := range frontier {
			moves := hoists(cur.t)
			if room := opts.MaxUnroll - cur.unrolls; room > 0 {
				moves = append(moves, pipelines(cur.t, room)...)
			}
			for _, mv := range moves {
				cand := straighten(mv.t)
				kbuf = types.AppendAlphaKey(kbuf[:0], cand)
				if seen[string(kbuf)] {
					continue
				}
				key := string(kbuf)
				seen[key] = true
				d := derived{
					t:       cand,
					key:     key,
					steps:   append(append([]string(nil), cur.steps...), mv.desc),
					unrolls: cur.unrolls + mv.unrolls,
				}
				pool = append(pool, d)
				if len(pool) >= opts.MaxCandidates {
					break
				}
			}
			if len(pool) >= opts.MaxCandidates {
				break
			}
		}
		frontier = pool[start:]
	}
	res.Considered = len(pool)

	// Certify. Candidates that are not well-formed (a rewrite can in
	// principle produce a non-contractive shape, which LoadLocal's
	// validation rejects) or not asynchronous subtypes of the original are
	// discarded — an uncertified rewrite is a bug, never an output. Each
	// keeps the α-canonical key the search deduplicated it by, for the
	// ranking's last tie-break.
	certified := make([]Candidate, 1, 1+len(pool))
	certified[0] = Candidate{Type: orig, Lookahead: res.Baseline, Cert: baseline, key: origKey}
	var msub fsm.FSM // every candidate's machine, loaded in turn
	for _, d := range pool {
		if msub.LoadLocal(role, d.t) != nil {
			continue
		}
		cert, err := sup.Check(&msub, copts)
		if err != nil || !cert.OK {
			continue
		}
		certified = append(certified, Candidate{
			Type:      d.t,
			Lookahead: cert.Stats.MaxSendAhead,
			Cert:      cert,
			Steps:     d.steps,
			Unrolls:   d.unrolls,
			key:       d.key,
		})
	}
	slices.SortStableFunc(certified, func(a, b Candidate) int {
		return cmp.Or(
			cmp.Compare(b.Lookahead, a.Lookahead),
			cmp.Compare(a.Unrolls, b.Unrolls),
			cmp.Compare(len(a.Steps), len(b.Steps)),
			strings.Compare(a.key, b.key),
		)
	})
	res.Certified = certified
	res.Best = res.Certified[0]
	res.Improved = res.Best.Lookahead > res.Baseline
	return res, nil
}
