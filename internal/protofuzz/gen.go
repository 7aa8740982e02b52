// Package protofuzz generates random well-formed global session types and
// pushes them through the entire reproduction pipeline — projection, k-MC
// checking, certified AMR optimisation, code generation, and execution under
// all three runtime modes — asserting the repo's strongest cross-cutting
// properties on every generated protocol instead of only the 18 hand-picked
// registry rows. See DESIGN.md "Trace equivalence as the AMR oracle" and
// EXPERIMENTS.md "Generative differential fuzzing".
//
// The package has three faces: Generate (the bounded random generator),
// RunPipeline (the differential driver with its staged
// failure taxonomy), and Shrink (greedy minimisation of a failing protocol
// to a registry-style .scr reproducer, via cmd/protofuzz).
package protofuzz

import (
	"fmt"

	"repro/internal/types"
)

// Config bounds the shape of generated global types. The zero value is
// usable: every field has a default chosen so that a generated protocol
// stresses choice, recursion and payload sorts while staying small enough to
// run its whole pipeline cell in milliseconds.
type Config struct {
	// Seed fully determines the generated protocol.
	Seed uint64
	// MaxRoles bounds the participant pool (≥ 2; default 4).
	MaxRoles int
	// MaxDepth bounds the communication-prefix depth (default 7).
	MaxDepth int
	// MaxBranch bounds the arity of a directed choice (default 4).
	MaxBranch int
	// MaxRec bounds the number of recursion binders (default 2).
	MaxRec int
	// Sorts is the payload pool; nil means DefaultSorts().
	Sorts []types.Sort
}

func (c Config) withDefaults() Config {
	if c.MaxRoles < 2 {
		c.MaxRoles = 4
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 7
	}
	if c.MaxBranch <= 0 {
		c.MaxBranch = 4
	}
	if c.MaxRec < 0 {
		c.MaxRec = 0
	} else if c.MaxRec == 0 {
		c.MaxRec = 2
	}
	if len(c.Sorts) == 0 {
		c.Sorts = DefaultSorts()
	}
	return c
}

// DefaultSorts is the registry-seeded payload pool: the scalar built-ins the
// monitor checks dynamically, plus derived vector sorts including a nested
// vec<vec<S>> — the shapes that exercised real bugs in the sort registry and
// the wire codecs.
func DefaultSorts() []types.Sort {
	return []types.Sort{
		types.Unit,
		types.Unit, // signals are the common case; weight them double
		types.I32,
		types.I64,
		types.F64,
		types.Str,
		types.Bool,
		types.VecOf(types.I32),
		types.VecOf(types.Complex128),
		types.VecOf(types.VecOf(types.F64)),
	}
}

// rng is a splitmix64 stream: tiny, allocation-free, and stable across Go
// releases — a protocol generated from a seed today must be byte-identical
// forever, because seeds double as regression pins (cmd/protofuzz -seed).
type rng struct{ x uint64 }

func newRng(seed uint64) *rng { return &rng{x: seed + 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// chance reports true with probability num/den.
func (r *rng) chance(num, den int) bool { return r.intn(den) < num }

// binder is a recursion variable in scope. A variable may only be referenced
// once guarded (at least one communication since its μ), which is exactly
// the contractivity condition types.ValidateGlobal enforces.
type binder struct {
	name    string
	guarded bool
}

type generator struct {
	rng   *rng
	cfg   Config
	roles []types.Role
	// recCount numbers μ-binders; the pool of labels is fixed and small so
	// recursion revisits familiar labels (as real protocols do) while every
	// choice still draws pairwise-distinct ones.
	recCount int
}

var labelPool = []types.Label{"a", "b", "req", "ack", "val", "stop", "go", "err"}

// Generate builds a random closed, contractive global type from cfg. The
// result always passes types.ValidateGlobal, but is not guaranteed to be
// projectable — full merge can legitimately reject a well-formed global —
// so a differential driver filters for projectability (the package's tests
// do so with GenerateProjectable).
func Generate(cfg Config) types.Global {
	cfg = cfg.withDefaults()
	r := newRng(cfg.Seed)
	nRoles := 2 + r.intn(cfg.MaxRoles-1)
	g := &generator{rng: r, cfg: cfg}
	for i := 0; i < nRoles; i++ {
		g.roles = append(g.roles, types.Role(fmt.Sprintf("r%d", i)))
	}
	// aware starts as the full role set: before any choice is made, any role
	// may initiate.
	aware := make([]types.Role, len(g.roles))
	copy(aware, g.roles)
	out := g.gen(0, aware, nil)
	if !hasComm(out) {
		// An empty protocol exercises nothing; force at least one
		// interaction so every generated protocol has observable behaviour.
		from, to := g.roles[0], g.roles[1]
		out = types.GComm(from, to, labelPool[r.intn(len(labelPool))], g.pickSort(), out)
	}
	return out
}

// gen emits a global type at the given depth. aware is the set of roles that
// know which branch of every enclosing choice was taken — only they may
// initiate the next interaction, which is the standard choice-propagation
// discipline that keeps most generated protocols projectable. scope carries
// the recursion binders with their guard status.
func (g *generator) gen(depth int, aware []types.Role, scope []binder) types.Global {
	r := g.rng
	var guarded []string
	for _, b := range scope {
		if b.guarded {
			guarded = append(guarded, b.name)
		}
	}

	if depth >= g.cfg.MaxDepth {
		if len(guarded) > 0 && r.chance(2, 3) {
			return types.GVar{Name: guarded[r.intn(len(guarded))]}
		}
		return types.GEnd{}
	}
	// Early termination keeps the size distribution broad (lots of small
	// protocols, a tail of deep ones).
	if r.chance(1, 8) {
		return types.GEnd{}
	}
	if len(guarded) > 0 && r.chance(1, 5) {
		return types.GVar{Name: guarded[r.intn(len(guarded))]}
	}
	if g.recCount < g.cfg.MaxRec && r.chance(1, 4) {
		name := fmt.Sprintf("t%d", g.recCount)
		g.recCount++
		body := g.gen(depth, aware, append(append([]binder(nil), scope...), binder{name: name}))
		return types.GRec{Name: name, Body: body}
	}

	// A directed interaction. The sender must be choice-aware; the receiver
	// becomes aware.
	from := aware[r.intn(len(aware))]
	to := g.roles[r.intn(len(g.roles))]
	for to == from {
		to = g.roles[r.intn(len(g.roles))]
	}
	nb := 1
	if r.chance(1, 3) {
		nb = 2 + r.intn(g.cfg.MaxBranch-1)
		if nb > len(labelPool) {
			nb = len(labelPool)
		}
	}
	// Passing a communication guards every binder in scope.
	inner := make([]binder, len(scope))
	for i, b := range scope {
		inner[i] = binder{name: b.name, guarded: true}
	}
	labels := g.pickLabels(nb)
	branches := make([]types.GBranch, nb)
	for i := 0; i < nb; i++ {
		contAware := awareAfter(aware, from, to, nb)
		branches[i] = types.GBranch{
			Label: labels[i],
			Sort:  g.pickSort(),
			Cont:  g.gen(depth+1, contAware, inner),
		}
	}
	return types.Comm{From: from, To: to, Branches: branches}
}

// awareAfter computes the aware set for a branch continuation: after a real
// choice only the chooser and the informed peer know the outcome; a
// single-branch interaction informs the receiver without narrowing.
func awareAfter(aware []types.Role, from, to types.Role, nb int) []types.Role {
	if nb > 1 {
		return []types.Role{from, to}
	}
	for _, r := range aware {
		if r == to {
			return aware
		}
	}
	return append(append([]types.Role(nil), aware...), to)
}

// pickLabels draws n pairwise-distinct labels from the pool.
func (g *generator) pickLabels(n int) []types.Label {
	idx := g.rng.intn(len(labelPool))
	out := make([]types.Label, n)
	for i := 0; i < n; i++ {
		out[i] = labelPool[(idx+i)%len(labelPool)]
	}
	return out
}

func (g *generator) pickSort() types.Sort {
	return g.cfg.Sorts[g.rng.intn(len(g.cfg.Sorts))]
}

func hasComm(g types.Global) bool {
	switch g := g.(type) {
	case types.Comm:
		return true
	case types.GRec:
		return hasComm(g.Body)
	}
	return false
}
