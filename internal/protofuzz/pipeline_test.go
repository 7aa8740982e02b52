package protofuzz

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/types"
)

// sweepConfig is the tier-1 sweep shape. It is part of the replay contract:
// cmd/protofuzz -seed N runs exactly this configuration, so a sweep failure
// message's seed is sufficient to reproduce the cell.
func sweepConfig(seed uint64) Config { return Config{Seed: seed} }

// TestGenerateWellFormed pins the generator's core promise: every output
// validates (closed, contractive, no self-communication, distinct labels),
// contains at least one communication, and is a deterministic function of
// the seed.
func TestGenerateWellFormed(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		g := Generate(sweepConfig(seed))
		if err := types.ValidateGlobal(g); err != nil {
			t.Fatalf("seed %d: ill-formed global: %v\n%s", seed, err, g)
		}
		if !hasComm(g) {
			t.Fatalf("seed %d: no communication:\n%s", seed, g)
		}
		if again := Generate(sweepConfig(seed)); !types.EqualGlobal(g, again) {
			t.Fatalf("seed %d: generation is not deterministic:\n%s\nvs\n%s", seed, g, again)
		}
	}
}

// TestGenerateVariety asserts the seed space actually explores the shape
// space: across a modest prefix of seeds the generator must produce
// recursion, real choice, three-or-more participants and vector payloads.
func TestGenerateVariety(t *testing.T) {
	var recs, choices, wide, distinct int
	seen := map[string]bool{}
	for seed := uint64(0); seed < 200; seed++ {
		g := Generate(sweepConfig(seed))
		if !seen[g.String()] {
			seen[g.String()] = true
			distinct++
		}
		if hasRec(g) {
			recs++
		}
		if maxArity(g) > 1 {
			choices++
		}
		if len(types.Roles(g)) >= 3 {
			wide++
		}
	}
	if recs == 0 || choices == 0 || wide == 0 {
		t.Fatalf("degenerate generator: %d recursive, %d with choice, %d with ≥3 roles", recs, choices, wide)
	}
	if distinct < 150 {
		t.Fatalf("only %d distinct protocols in 200 seeds", distinct)
	}
}

func maxArity(g types.Global) int {
	switch g := g.(type) {
	case types.GRec:
		return maxArity(g.Body)
	case types.Comm:
		n := len(g.Branches)
		for _, b := range g.Branches {
			if m := maxArity(b.Cont); m > n {
				n = m
			}
		}
		return n
	}
	return 0
}

// TestPipelineSeedSweep is the tier-1 differential sweep: at least 200
// generated protocols run the full stack — projection, k-MC, certified
// optimisation, codegen, and execution under blocking/stepped/scheduled
// modes with trace equivalence and optimised-vs-plain channel equality
// asserted in every cell. Unprojectable seeds are discards (full merge is
// allowed to reject); every other stage failure is a real bug, reported
// with the seed that replays it via cmd/protofuzz.
func TestPipelineSeedSweep(t *testing.T) {
	const wantCells = 200
	shared := sched.New(sched.Options{Workers: 4, Quantum: 8})
	defer shared.Close()
	opts := PipelineOptions{Scheduler: shared}

	var cells, discards int
	var recursive, improved, multiRole, actions int
	for seed := uint64(1); cells < wantCells; seed++ {
		if seed > 10*wantCells {
			t.Fatalf("only %d projectable protocols in %d seeds (%d discards)", cells, seed-1, discards)
		}
		g := Generate(sweepConfig(seed))
		rep, fail := RunPipeline(g, opts)
		if fail != nil {
			if fail.Discard() {
				discards++
				continue
			}
			t.Fatalf("seed %d failed at stage %s: %v\nreplay: go run ./cmd/protofuzz -seed %d\nprotocol:\n%s",
				seed, fail.Stage, fail.Err, seed, g)
		}
		cells++
		actions += rep.Actions
		if rep.Recursive {
			recursive++
		}
		if rep.Improved > 0 {
			improved++
		}
		if rep.Roles >= 3 {
			multiRole++
		}
	}
	// The sweep must genuinely exercise the interesting axes, not coast on
	// two-role straight-line protocols.
	if recursive == 0 || multiRole == 0 || actions == 0 {
		t.Fatalf("degenerate sweep: %d recursive, %d multi-role, %d total actions", recursive, multiRole, actions)
	}
	t.Logf("sweep: %d cells (%d discards), %d recursive, %d with certified improvement, %d multi-role, %d actions replayed ×3 modes",
		cells, discards, recursive, improved, multiRole, actions)
}

// TestPipelineCorpus runs every deterministic extreme-shape corpus entry
// through the full pipeline — the shapes the random sweep reaches only
// rarely must pass every stage too.
func TestPipelineCorpus(t *testing.T) {
	for _, ng := range CorpusGlobals() {
		ng := ng
		t.Run(ng.Name, func(t *testing.T) {
			if _, err := project.ProjectAll(ng.Global); err != nil {
				t.Fatalf("corpus entry does not project: %v", err)
			}
			if _, fail := RunPipeline(ng.Global, PipelineOptions{}); fail != nil {
				t.Fatalf("stage %s: %v", fail.Stage, fail.Err)
			}
		})
	}
}

// TestGenerateProjectable pins the retry contract: the derived-seed
// sequence is deterministic and the accepted protocol projects.
func TestGenerateProjectable(t *testing.T) {
	g, used, ok := GenerateProjectable(Config{Seed: 42}, 50)
	if !ok {
		t.Fatalf("no projectable protocol in 50 proposals")
	}
	if _, err := project.ProjectAll(g); err != nil {
		t.Fatalf("accepted protocol does not project: %v", err)
	}
	g2, used2, ok2 := GenerateProjectable(Config{Seed: 42}, 50)
	if !ok2 || used != used2 || !types.EqualGlobal(g, g2) {
		t.Fatalf("GenerateProjectable is not deterministic: (%d,%v) vs (%d,%v)", used, ok, used2, ok2)
	}
}

// badChoice is a recorder that picks an out-of-range option at every output
// state, faulting the first send it is asked to decide.
type badChoice struct{ pfStrategy }

func (*badChoice) Choose(fsm.State, []fsm.Transition) int { return 99 }

// TestScheduledFaultClosesPrivateScheduler pins that a fault in the
// scheduled replay still closes the private scheduler a cell runs without
// PipelineOptions.Scheduler: its workers must not outlive the failure.
func TestScheduledFaultClosesPrivateScheduler(t *testing.T) {
	g := types.MustParseGlobal("mu x.t->s:ready.s->t:{value(i32).x, stop.end}")
	roles := len(types.Roles(g))
	base := runtime.NumGoroutine()
	made := 0
	mk := func(types.Role) equiv.TraceRecorder {
		made++
		if made > 2*roles { // the reference and blocking runs stay healthy
			return &badChoice{}
		}
		return &pfStrategy{}
	}
	_, _, fail := runAllModes(g, nil, mk, PipelineOptions{}.withDefaults())
	if fail == nil || fail.Stage != StageRun || !strings.Contains(fail.Err.Error(), "scheduled") {
		t.Fatalf("faulting scheduled replay: %v, want a run-stage failure of the scheduled run", fail)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
