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

// The search as it was before it keyed moves before building them: every
// move of a frontier type is built as a whole type, straightened and keyed,
// and only then deduplicated; every candidate's step is formatted with fmt.
// It is the oracle TestSearchMatchesReference holds Optimise to.

// rewriteEverywhere applies the node-level generator f at every subterm
// position of t, in pre-order, appending one whole-type rewrite per
// application site to out.
func rewriteEverywhere(out []rewrite, t types.Local, f func(types.Local) []rewrite) []rewrite {
	w := siteWalker{root: t, f: f, out: out}
	w.walk(t)
	return w.out
}

// siteWalker visits the subterms of root, tracking the branch indices
// from the root to the current one (0 for a μ body).
type siteWalker struct {
	root types.Local
	f    func(types.Local) []rewrite
	path []int
	out  []rewrite
}

func (w *siteWalker) walk(n types.Local) {
	for _, r := range w.f(n) {
		r.t = replaceAt(w.root, w.path, r.t)
		w.out = append(w.out, r)
	}
	var bs []types.Branch
	switch n := n.(type) {
	case types.Rec:
		w.path = append(w.path, 0)
		w.walk(n.Body)
		w.path = w.path[:len(w.path)-1]
		return
	case types.Send:
		bs = n.Branches
	case types.Recv:
		bs = n.Branches
	}
	for i := range bs {
		w.path = append(w.path, i)
		w.walk(bs[i].Cont)
		w.path = w.path[:len(w.path)-1]
	}
}

// hoists returns every single application of the in-place hoist anywhere
// in t, as whole types.
func hoists(t types.Local) []rewrite {
	return rewriteEverywhere(nil, t, func(n types.Local) []rewrite {
		if r, ok := hoistNode(n); ok {
			return []rewrite{r}
		}
		return nil
	})
}

// pipelines returns every application of the loop-pipelining move at any
// Rec subterm, for every depth 1 ≤ d ≤ maxDepth, as whole types.
func pipelines(t types.Local, maxDepth int) []rewrite {
	var out []rewrite
	for d := 1; d <= maxDepth; d++ {
		out = rewriteEverywhere(out, t, func(n types.Local) []rewrite { return pipelineNode(nil, n, d) })
	}
	return out
}

// descRef is the step text as fmt formatted it.
func descRef(r rewrite) string {
	if r.unrolls > 0 {
		return fmt.Sprintf("pipeline %s!%s out of μ%s ×%d", r.peer, r.label, r.rec, r.unrolls)
	}
	return fmt.Sprintf("hoist %s!%s past %s?{…}", r.peer, r.label, r.past)
}

// referenceOptimise is Optimise as the search that builds every move.
func referenceOptimise(role types.Role, orig types.Local, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := types.ValidateLocal(orig); err != nil {
		return Result{}, fmt.Errorf("optimise: %w", err)
	}
	orig = types.NormalizeLocal(orig)

	res := Result{Role: role, Original: orig}

	copts := core.Options{Bound: opts.Bound, Trace: opts.Trace}
	msup, err := fsm.FromLocal(role, orig)
	if err != nil {
		return Result{}, fmt.Errorf("optimise: baseline check: %w", err)
	}
	var sup core.Supertype
	if err := sup.Reset(msup); err != nil {
		return Result{}, fmt.Errorf("optimise: baseline check: %w", err)
	}
	baseline, err := sup.Check(msup, copts)
	if err != nil {
		return Result{}, fmt.Errorf("optimise: baseline check: %w", err)
	}
	if !baseline.OK {
		return Result{}, fmt.Errorf("optimise: role %s: original type failed its reflexive certificate (bound %d)", role, opts.Bound)
	}
	res.Baseline = baseline.Stats.MaxSendAhead

	var kbuf []byte
	kbuf = types.AppendAlphaKey(kbuf, orig)
	origKey := string(kbuf)
	seen := map[string]bool{origKey: true}
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
					steps:   append(append([]string(nil), cur.steps...), descRef(mv)),
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

	certified := make([]Candidate, 1, 1+len(pool))
	certified[0] = Candidate{Type: orig, Lookahead: res.Baseline, Cert: baseline, key: origKey}
	for _, d := range pool {
		msub, err := fsm.FromLocal(role, d.t)
		if err != nil {
			continue
		}
		cert, err := sup.Check(msub, copts)
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

// ReferenceOptimise exports the oracle to the external test package,
// which can import the protocol registry and the fuzz generator.
var ReferenceOptimise = referenceOptimise
