package main

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/kmc"
	"repro/internal/optimise"
	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/scribble"
	"repro/internal/types"
)

// verify-corpus: the toolchain over protocols whose verdicts are known.
// One op takes one protocol through scribble format → parse → projection
// → k-MC → per-role AMR optimisation → core re-certification of each best
// candidate → k-MC of the optimised system → code generation. Only the
// verifier layers run; no runtime layer does.

// kmcRoleCap skips k-MC on systems wider than five roles, as the
// differential fuzzer does: the 8-role FFT costs 0.3 s plain and about
// 10 s optimised, which would swamp every other protocol.
const kmcRoleCap = 5

// kmcMaxK is the k-MC probe ceiling.
const kmcMaxK = 8

// optOpts is the optimiser budget of the differential fuzzer: one unroll,
// two composed rewrites, 32 candidates, certification bound 6.
var optOpts = optimise.Options{MaxUnroll: 1, MaxPasses: 2, MaxCandidates: 32, Bound: 6}

// verdict is what the toolchain concludes about one protocol: the k at
// which the projected system is k-MC, the number of roles the optimiser
// improved, and the k of the optimised system. k = 0 means k-MC was
// skipped under kmcRoleCap.
type verdict struct {
	k, improved, optK int
}

// registryVerdicts is the expected verdict of every Table 1 row that has
// a global type (Hospital exists only as endpoint types).
var registryVerdicts = map[string]verdict{
	"Two Adder":                  {1, 1, 1},
	"Three Adder":                {1, 2, 1},
	"Streaming":                  {1, 1, 1},
	"Optimised Streaming":        {1, 1, 1},
	"Ring":                       {1, 3, 2},
	"Optimised Ring":             {1, 3, 2},
	"Ring With Choice":           {1, 3, 1},
	"Optimised Ring With Choice": {1, 3, 1},
	"Double Buffering":           {1, 3, 2},
	"Optimised Double Buffering": {1, 3, 2},
	"Alternating Bit":            {1, 1, 1},
	"Elevator":                   {1, 2, 2},
	"FFT":                        {0, 8, 0},
	"Optimised FFT":              {0, 8, 0},
	"Authentication":             {1, 1, 1},
	"Client-Server Log":          {1, 0, 1},
}

// family is one Fig. 7 protocol family as a global type of size n.
type family struct {
	name     string
	min, max int
	global   func(n int) string
	// want is the expected verdict at size n: every family member is
	// accepted.
	want func(n int) verdict
}

// families are the Fig. 7 families. Sizes stop where one op would cost
// tens of ms (the 5-ring's optimised k-MC, nested choice at depth 3).
var families = []family{
	{"StreamingUnrolled", 1, 6, func(n int) string {
		return "mu x." + strings.Repeat("t->s:ready.s->t:value(i32).", n) + "x"
	}, func(int) verdict { return verdict{1, 2, 2} }},
	{"KBuffering", 1, 4, func(n int) string {
		return "mu x." + strings.Repeat("k->s:ready.s->k:value(i32).t->k:ready.k->t:value(i32).", n) + "x"
	}, func(int) verdict { return verdict{1, 3, 2} }},
	{"RingN", 2, 4, func(n int) string {
		var b strings.Builder
		b.WriteString("mu t.")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "r%d->r%d:v(i32).", i, (i+1)%n)
		}
		b.WriteString("t")
		return b.String()
	}, func(n int) verdict { return verdict{1, n, 2} }},
	{"NestedChoice", 1, 2, nestedChoice, func(n int) verdict {
		return [...]verdict{1: {1, 0, 1}, 2: {1, 1, 1}}[n]
	}},
}

// nestedChoice is the global type whose projections are the nested-choice
// pair of Chen et al. at depth n.
func nestedChoice(n int) string {
	if n == 0 {
		return "end"
	}
	g := nestedChoice(n - 1)
	return fmt.Sprintf("p->o:{m.o->p:{r.%s, s.%s, u.%s}, q.o->p:{r.%s, s.%s}}", g, g, g, g, g)
}

// perFamily is how many members of each family the corpus holds: a
// multiple of every family's number of sizes.
const perFamily = 12

// payloadSorts are the scalar sorts a family member's payloads may carry.
var payloadSorts = []string{"i32", "i64", "u32", "u64", "f64", "bool"}

// entry is one corpus protocol.
type entry struct {
	name   string
	global types.Global
	want   verdict
	bound  int // registry KmcBound; 0 for families
}

// corpusClients is how many goroutines verify protocols at once: one per
// CPU the load may use.
const corpusClients = 2

type corpus struct {
	entries []entry
	dig     string
	warm    []entry // the Table 1 rows, run once per set-up

	mu   sync.Mutex // guards next and out
	next int
	// out holds each entry's first generated source, checked with
	// go/parser once; later ops must reproduce it byte for byte.
	out [][]byte
}

func newCorpus(seed uint64) workload {
	rng := newRNG(seed)
	c := &corpus{}
	d := newDigest()
	for _, e := range protocols.Registry() {
		if e.Global == nil {
			continue
		}
		c.warm = append(c.warm, entry{name: e.Name, global: e.Global, want: registryVerdicts[e.Name], bound: e.KmcBound})
	}
	c.entries = append(c.entries, c.warm...)
	for _, f := range families {
		for i := 0; i < perFamily; i++ {
			// Stratified draw: the sizes cycle through the family's
			// range, so every seed's corpus costs the same to verify;
			// the seed draws each member's payload sort and the order.
			n := f.min + i%(f.max-f.min+1)
			sort := payloadSorts[rng.intn(len(payloadSorts))]
			c.entries = append(c.entries, entry{
				name:   fmt.Sprintf("%s%d<%s>", f.name, n, sort),
				global: types.MustParseGlobal(strings.ReplaceAll(f.global(n), "(i32)", "("+sort+")")),
				want:   f.want(n),
			})
		}
	}
	rng.shuffle(len(c.entries), func(i, j int) { c.entries[i], c.entries[j] = c.entries[j], c.entries[i] })
	for _, e := range c.entries {
		d.add(e.name, e.global.String())
	}
	c.dig = d.sum()
	c.out = make([][]byte, len(c.entries))
	return c
}

func (c *corpus) digest() string { return c.dig }

// setup runs the pipeline once over the Table 1 rows: the toolchain's
// warm-up on a fixed set of protocols.
func (c *corpus) setup() error {
	for _, e := range c.warm {
		if _, err := pipeline(e, nil, 0); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

func (c *corpus) teardown() {}

// measure runs corpusClients closed loops over the corpus in its
// seed-shuffled order.
func (c *corpus) measure(deadline time.Time, rec *recorder, tr *tracer) error {
	var ops atomic.Int64
	var wg sync.WaitGroup
	for range corpusClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c.mu.Lock()
				i := c.next
				c.next = (c.next + 1) % len(c.entries)
				c.mu.Unlock()
				start := time.Now()
				src, err := pipeline(c.entries[i], tr, ops.Add(1))
				end := time.Now()
				rec.done(end, end.Sub(start), c.check(i, src, err))
				if !end.Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// check compares one op's outcome with the reference: the verdict table
// (inside pipeline) and the generated source, which must parse as Go and
// be the same on every pass.
func (c *corpus) check(i int, src []byte, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", c.entries[i].name, err)
	}
	c.mu.Lock()
	first := c.out[i]
	c.mu.Unlock()
	if first == nil {
		if _, err := parser.ParseFile(token.NewFileSet(), "gen.go", src, 0); err != nil {
			return fmt.Sprintf("%s: generated source does not parse: %v", c.entries[i].name, err)
		}
		c.mu.Lock()
		c.out[i] = bytes.Clone(src)
		c.mu.Unlock()
		return ""
	}
	if !bytes.Equal(first, src) {
		return fmt.Sprintf("%s: generated source differs between passes", c.entries[i].name)
	}
	return ""
}

// pipeline takes one protocol through the toolchain and returns the
// generated source, or an error when a stage fails or a verdict differs
// from the expected one. With tr set, every call into a layer is a span
// of op.
func pipeline(e entry, tr *tracer, op int64) ([]byte, error) {
	var root int64
	var rootStart, childNs int64
	if tr != nil {
		root, rootStart = tr.newID(), tr.now()
	}
	stage := func(name string, f func()) {
		if tr == nil {
			f()
			return
		}
		s := span{name: name, op: op, parent: root, start: tr.now()}
		f()
		s.end = tr.now()
		childNs += s.end - s.start
		tr.add(s, 0)
	}
	count := func(name string, v float64) {
		if tr != nil {
			tr.count(name, v)
		}
	}
	var err error
	fail := func(format string, a ...any) ([]byte, error) { return nil, fmt.Errorf(format, a...) }

	var p *scribble.Protocol
	stage("scribble.parse", func() {
		var src string
		if src, err = scribble.FormatGlobal("P", e.global); err == nil {
			p, err = scribble.Parse(src)
		}
	})
	if err != nil {
		return fail("scribble: %w", err)
	}

	var locals map[types.Role]types.Local
	plain := make([]*fsm.FSM, len(p.Roles))
	stage("project", func() {
		if locals, err = project.ProjectAll(p.Global); err != nil {
			return
		}
		for i, r := range p.Roles {
			if plain[i], err = fsm.FromLocal(r, locals[r]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fail("project: %w", err)
	}

	var got verdict
	checkKMC := func(ms []*fsm.FSM) (int, error) {
		if len(ms) > kmcRoleCap {
			return 0, nil
		}
		var k int
		var res kmc.Result
		stage("kmc", func() {
			var sys *kmc.System
			if sys, err = kmc.NewSystem(ms...); err == nil {
				k, res = kmc.CheckUpTo(sys, kmcMaxK)
			}
		})
		if err != nil {
			return 0, err
		}
		count("kmc.configs", float64(res.Configs))
		if !res.OK {
			return 0, fmt.Errorf("not %d-MC: %v", kmcMaxK, res.Violation)
		}
		return k, nil
	}
	if got.k, err = checkKMC(plain); err != nil {
		return fail("kmc: %w", err)
	}

	opt := make(map[types.Role]*fsm.FSM, len(p.Roles))
	optList := make([]*fsm.FSM, len(p.Roles))
	for i, r := range p.Roles {
		var res optimise.Result
		stage("optimise", func() { res, err = optimise.Optimise(r, locals[r], optOpts) })
		if err != nil {
			return fail("optimise %s: %w", r, err)
		}
		count("optimise.considered", float64(res.Considered))
		// Certified always holds the original type as well.
		count("optimise.certified", float64(len(res.Certified)-1))
		var cert core.Result
		stage("core", func() { cert, err = core.CheckTypes(r, res.Best.Type, locals[r], core.Options{Bound: optOpts.Bound}) })
		if err != nil || !cert.OK {
			return fail("core: best candidate for %s failed re-certification (%v)", r, err)
		}
		count("core.visits", float64(cert.Stats.Visits))
		if res.Improved {
			got.improved++
		}
		if optList[i], err = fsm.FromLocal(r, res.Best.Type); err != nil {
			return fail("optimised machine for %s: %w", r, err)
		}
		opt[r] = optList[i]
	}
	if got.optK, err = checkKMC(optList); err != nil {
		return fail("kmc of the optimised system: %w", err)
	}

	var src []byte
	stage("codegen", func() { src, err = codegen.Generate(p.Name, opt, codegen.Options{Package: "gen"}) })
	if err != nil {
		return fail("codegen: %w", err)
	}
	count("codegen.bytes", float64(len(src)))

	if tr != nil {
		tr.add(span{name: "op", op: op, id: root, start: rootStart, end: tr.now()}, childNs)
	}
	if got != e.want {
		return fail("verdict %+v, want %+v", got, e.want)
	}
	if e.bound > 0 && got.k > e.bound {
		return fail("k-MC at k=%d, above the registry bound %d", got.k, e.bound)
	}
	return src, nil
}

func (c *corpus) layers(tr *tracer, put func(string, float64)) {
	ops := float64(max(tr.spanCount("op"), 1))
	for _, l := range [][2]string{
		{"scribble.parse", "scribble.parse_us"}, {"project", "project.us"}, {"kmc", "kmc.us"},
		{"optimise", "optimise.us"}, {"core", "core.us"}, {"codegen", "codegen.us"},
	} {
		put(l[1], tr.totalSelfUs(l[0])/ops)
	}
	put("kmc.configs", tr.counter("kmc.configs")/ops)
	put("optimise.considered", tr.counter("optimise.considered")/ops)
	put("optimise.certified_ratio", tr.counter("optimise.certified")/max(tr.counter("optimise.considered"), 1))
	put("core.visits", tr.counter("core.visits")/ops)
	put("codegen.bytes", tr.counter("codegen.bytes")/ops)
}

// ladder: the corpus has no runtime messages, so its ladder streams the
// values 1, 2, ...
func (c *corpus) ladder() ladderSpec { return streamingLadder(1) }
