package protocols

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kmc"
	"repro/internal/project"
	"repro/internal/sim"
	"repro/internal/types"
)

func TestExtraRegistryWellFormed(t *testing.T) {
	for _, e := range ExtraRegistry() {
		if e.Global != nil {
			if err := types.ValidateGlobal(e.Global); err != nil {
				t.Errorf("%s: global: %v", e.Name, err)
			}
		}
		if len(e.Locals) != e.Participants {
			t.Errorf("%s: %d locals, %d participants", e.Name, len(e.Locals), e.Participants)
		}
		for r, l := range e.Locals {
			if err := types.ValidateLocal(l); err != nil {
				t.Errorf("%s/%s: %v", e.Name, r, err)
			}
		}
	}
}

func TestExtraLocalsMatchProjections(t *testing.T) {
	for _, e := range ExtraRegistry() {
		if e.Global == nil {
			continue
		}
		projs, err := project.ProjectAll(e.Global)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		for r, want := range projs {
			got := e.Locals[r]
			if got == nil {
				t.Errorf("%s: missing local for %s", e.Name, r)
				continue
			}
			if !types.EqualLocal(types.NormalizeLocal(got), types.NormalizeLocal(want)) {
				t.Errorf("%s/%s: local %s != projection %s", e.Name, r, got, want)
			}
		}
	}
}

func TestExtraSystemsVerifyAndExecute(t *testing.T) {
	for _, e := range ExtraRegistry() {
		// Optimised endpoints verify against their projections.
		for r, opt := range e.Optimised {
			res, err := core.CheckTypes(r, opt, e.Locals[r], core.Options{Bound: 8})
			if err != nil || !res.OK {
				t.Errorf("%s/%s: optimisation rejected (err=%v)", e.Name, r, err)
			}
		}
		// The executed system is k-MC.
		sys, err := kmc.NewSystem(Machines(FSMs(e.System()))...)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if _, res := kmc.CheckUpTo(sys, e.KmcBound); !res.OK {
			t.Errorf("%s: not %d-MC: %v", e.Name, e.KmcBound, res.Violation)
		}
		// And it executes without sticking under several schedules.
		ms := Machines(FSMs(e.System()))
		for seed := int64(0); seed < 10; seed++ {
			if _, err := sim.Run(ms, 2000, seed); err != nil {
				t.Errorf("%s (seed %d): %v", e.Name, seed, err)
				break
			}
		}
	}
}

func TestScatterGatherAMR(t *testing.T) {
	// The scatter-all-then-gather coordinator refines the per-worker
	// interleaved one — the fan-out optimisation as asynchronous subtyping.
	for _, n := range []int{1, 2, 4, 8} {
		scattered := ScatterGather(n).Locals["c"]
		interleaved := SequentialScatterGather(n)
		res, err := core.CheckTypes("c", scattered, interleaved, core.Options{Bound: 2*n + 4})
		if err != nil || !res.OK {
			t.Errorf("n=%d: scattered coordinator rejected (err=%v)", n, err)
		}
		// The reverse does not hold: the interleaved coordinator delays its
		// later tasks, which the scattered supertype's peers may depend on.
		rev, err := core.CheckTypes("c", interleaved, scattered, core.Options{Bound: 2*n + 4})
		if err != nil {
			t.Fatal(err)
		}
		if n > 1 && rev.OK {
			t.Errorf("n=%d: interleaved ≤ scattered unexpectedly accepted", n)
		}
	}
}

func TestPipelineGrowth(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		e := PipelineEntry(n)
		if len(e.Locals) != n {
			t.Fatalf("pipeline %d has %d locals", n, len(e.Locals))
		}
		if n > 2 && len(e.Optimised) != n-2 {
			t.Errorf("pipeline %d has %d optimised stages, want %d", n, len(e.Optimised), n-2)
		}
	}
}

func TestTwoBuyerBothOutcomes(t *testing.T) {
	// Run the two-buyer protocol through the simulator for enough seeds that
	// both outcomes (buy/quit) occur.
	e := TwoBuyer()
	ms := Machines(FSMs(e.Locals))
	terminated := 0
	for seed := int64(0); seed < 20; seed++ {
		res, err := sim.Run(ms, 100, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Terminated {
			terminated++
		}
	}
	if terminated != 20 {
		t.Errorf("only %d/20 runs terminated", terminated)
	}
}

// SequentialScatterGather returns the *interleaved* coordinator type
// (task/result per worker in turn) for the same workers: the supertype that
// the scattered coordinator of ScatterGather(n) refines. Used by tests to
// show AMR verifying a fan-out optimisation.
func SequentialScatterGather(n int) types.Local {
	var coord types.Local = types.End{}
	for i := n - 1; i >= 0; i-- {
		coord = types.LSend(sgWorker(i), "task", types.I64,
			types.LRecv(sgWorker(i), "result", types.I64, coord))
	}
	return coord
}
