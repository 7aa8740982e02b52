package protofuzz

import (
	"fmt"
	"testing"

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

// scale_test is the scalability sweep behind BENCH_check.json: the static
// pipeline's three verification engines pushed to machine sizes the
// protocol registry never reaches — reflexive subtyping over
// thousand-state chains, k-MC over thousand-state projected systems, and
// the AMR search over deep pipelining unrolls. Run via `make bench
// SUITE=check`; bench-smoke gates the allocation columns against the
// committed snapshot.

// BenchmarkCheckScale drives core.Check's visited-pair history to its
// quadratic worst case: a reflexive check of an alternating send/recv
// chain with n actions walks n+1 states against themselves.
func BenchmarkCheckScale(b *testing.B) {
	for _, n := range []int{300, 600, 1200} {
		l := DeepLocal(n)
		b.Run(fmt.Sprintf("states=%d", n+1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.CheckTypes("p", l, l, core.Options{})
				if err != nil || !res.OK {
					b.Fatalf("reflexive check rejected: ok=%v err=%v", res.OK, err)
				}
			}
		})
	}
}

// BenchmarkKmcScale checks two-role systems whose machines have 1000+
// states — DeepGlobal(n) projects to a pair of (n+1)-state chains — at the
// bound where the alternating chain is compatible (k = 1).
func BenchmarkKmcScale(b *testing.B) {
	for _, n := range []int{250, 500, 1000} {
		fsms, err := project.ProjectFSMs(DeepGlobal(n))
		if err != nil {
			b.Fatal(err)
		}
		machines := protocols.Machines(fsms)
		b.Run(fmt.Sprintf("states=%d", n+1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := kmc.NewSystem(machines...)
				if err != nil {
					b.Fatal(err)
				}
				k, res := kmc.CheckUpTo(sys, 1)
				if !res.OK || k != 1 {
					b.Fatalf("chain not 1-MC: k=%d %v", k, res.Violation)
				}
			}
		})
	}
}

// BenchmarkOptimiseScale measures the certified AMR search on its
// worst-case shape — the recv-then-k-sends loop whose whole send block can
// hoist across the receive — at increasing unroll depth. Every cell must
// find a certified improvement, or the sweep is measuring a degenerate
// search.
func BenchmarkOptimiseScale(b *testing.B) {
	for _, tc := range []struct{ sends, unroll int }{
		{2, 1}, {4, 2}, {8, 2},
	} {
		l := PipelinedLocal(tc.sends)
		b.Run(fmt.Sprintf("sends=%d/unroll=%d", tc.sends, tc.unroll), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := optimise.Optimise("p", l, optimise.Options{MaxUnroll: tc.unroll})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Improved {
					b.Fatalf("no certified improvement on the pipelining shape")
				}
			}
		})
	}
}

// BenchmarkPipelineDeep runs the full differential pipeline — projection,
// k-MC, certified optimisation, codegen, three execution modes, guided
// replay — on a deep straight-line protocol, the end-to-end cost of one
// oversized fuzz cell.
func BenchmarkPipelineDeep(b *testing.B) {
	g := DeepGlobal(120)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, fail := RunPipeline(g, PipelineOptions{}); fail != nil {
			b.Fatalf("stage %s: %v", fail.Stage, fail.Err)
		}
	}
}

// BenchmarkVerifyTable1 takes every Table 1 row that has a global type
// through the verifier toolchain, as perfbench's verify-corpus workload
// does for one protocol per op: Scribble format and parse, projection,
// k-MC of the projected system, the AMR search per role, an independent
// core re-certification of each best candidate, k-MC of the optimised
// system and code generation. Systems wider than five roles skip k-MC. The
// gated allocs/op column is the verifier's end-to-end allocation count.
func BenchmarkVerifyTable1(b *testing.B) {
	var globals []types.Global
	for _, e := range protocols.Registry() {
		if e.Global != nil {
			globals = append(globals, e.Global)
		}
	}
	opts := PipelineOptions{}.withDefaults().Optimise
	verify := func(g types.Global) error {
		src, err := scribble.FormatGlobal("P", g)
		if err != nil {
			return err
		}
		p, err := scribble.Parse(src)
		if err != nil {
			return err
		}
		locals, err := project.ProjectAll(p.Global)
		if err != nil {
			return err
		}
		checkKMC := func(ms []*fsm.FSM) error {
			if len(ms) > optKMCRoleCap {
				return nil
			}
			sys, err := kmc.NewSystem(ms...)
			if err != nil {
				return err
			}
			if _, res := kmc.CheckUpTo(sys, 8); !res.OK {
				return fmt.Errorf("not 8-MC: %v", res.Violation)
			}
			return nil
		}
		plain := make([]*fsm.FSM, len(p.Roles))
		for i, r := range p.Roles {
			if plain[i], err = fsm.FromLocal(r, locals[r]); err != nil {
				return err
			}
		}
		if err := checkKMC(plain); err != nil {
			return err
		}
		opt := make(map[types.Role]*fsm.FSM, len(p.Roles))
		optList := make([]*fsm.FSM, len(p.Roles))
		for i, r := range p.Roles {
			res, err := optimise.Optimise(r, locals[r], opts)
			if err != nil {
				return err
			}
			cert, err := core.CheckTypes(r, res.Best.Type, locals[r], core.Options{Bound: opts.Bound})
			if err != nil || !cert.OK {
				return fmt.Errorf("best candidate for %s failed re-certification (%v)", r, err)
			}
			if optList[i], err = fsm.FromLocal(r, res.Best.Type); err != nil {
				return err
			}
			opt[r] = optList[i]
		}
		if err := checkKMC(optList); err != nil {
			return err
		}
		_, err = codegen.Generate(p.Name, opt, codegen.Options{Package: "gen"})
		return err
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range globals {
			if err := verify(g); err != nil {
				b.Fatalf("%s: %v", g, err)
			}
		}
	}
}

// DeepGlobal builds a two-role alternating chain of n single-branch
// communications: each projection is a machine with n+1 states. It is the
// scalability input for the k-MC checker and the session pipeline — state
// counts the registry never reaches.
func DeepGlobal(n int) types.Global {
	p, q := types.Role("p"), types.Role("q")
	g := types.Global(types.GEnd{})
	for i := n - 1; i >= 0; i-- {
		from, to := p, q
		if i%2 == 1 {
			from, to = to, from
		}
		g = types.GComm(from, to, "m", types.I64, g)
	}
	return g
}

// DeepLocal builds a single-role alternating send/recv chain with n actions
// (n+1 states) against peer q. Reflexively checking it drives core.Check's
// n×n history to its quadratic worst case, which is what the BENCH_check
// scalability sweep measures.
func DeepLocal(n int) types.Local {
	q := types.Role("q")
	l := types.Local(types.End{})
	for i := n - 1; i >= 0; i-- {
		if i%2 == 0 {
			l = types.LSend(q, "m", types.I64, l)
		} else {
			l = types.LRecv(q, "m", types.I64, l)
		}
	}
	return l
}

// PipelinedLocal builds a recv-then-k-sends loop: rec t. q?req(i32).
// q!ack(i64)…(k times)….t. The AMR optimiser hoists the send block across
// the receive, so deep unrolls of this shape are the optimiser's
// worst-case search input for the scalability sweep.
func PipelinedLocal(k int) types.Local {
	q := types.Role("q")
	body := types.Local(types.Var{Name: "t"})
	for i := 0; i < k; i++ {
		body = types.LSend(q, types.Label(fmt.Sprintf("ack%d", i)), types.I64, body)
	}
	body = types.LRecv(q, "req", types.I32, body)
	return types.Rec{Name: "t", Body: body}
}
