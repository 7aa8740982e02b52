package protofuzz

import (
	"testing"

	"repro/internal/scribble"
	"repro/internal/types"
)

// paddedUnprojectable is a deliberately seeded pipeline failure: role c
// sends in one branch of a choice it is not informed of and is silent in
// the other, so full merge rejects — buried under two interactions of
// padding and non-trivial payloads that a minimal reproducer does not need.
func paddedUnprojectable() types.Global {
	a, b, c := types.Role("a"), types.Role("b"), types.Role("c")
	return types.GComm(a, b, "req", types.VecOf(types.I32),
		types.GComm(b, c, "val", types.Str,
			types.Comm{From: a, To: b, Branches: []types.GBranch{
				{Label: "l", Sort: types.F64, Cont: types.GComm(c, a, "m", types.VecOf(types.VecOf(types.F64)),
					types.GComm(b, a, "ack", types.Unit, types.GEnd{}))},
				{Label: "r", Sort: types.Unit, Cont: types.GComm(b, a, "ack", types.Unit, types.GEnd{})},
			}}))
}

// handMinimalUnprojectable is the known-minimal reproducer of the same
// failure class: one choice, one uninformed role diverging across branches.
func handMinimalUnprojectable() types.Global {
	a, b, c := types.Role("a"), types.Role("b"), types.Role("c")
	return types.Comm{From: a, To: b, Branches: []types.GBranch{
		{Label: "l", Sort: types.Unit, Cont: types.GComm(c, a, "m", types.Unit, types.GEnd{})},
		{Label: "r", Sort: types.Unit, Cont: types.GEnd{}},
	}}
}

// TestShrinkerMinimises pins the shrinker contract from the issue: a
// deliberately seeded pipeline failure must minimise to a protocol no
// larger than the known hand-minimal reproducer, and the emitted .scr must
// re-parse and re-fail with the same signature.
func TestShrinkerMinimises(t *testing.T) {
	opts := PipelineOptions{}
	padded := paddedUnprojectable()
	_, fail := RunPipeline(padded, opts)
	if fail == nil || fail.Stage != StageProject {
		t.Fatalf("seeded failure did not fire at project: %v", fail)
	}

	min := Shrink(padded, FailsWith(fail, opts))
	if got, ceil := Size(min), Size(handMinimalUnprojectable()); got > ceil {
		t.Fatalf("shrunk to size %d, hand-minimal is %d:\n%s", got, ceil, min)
	}
	if _, refail := RunPipeline(min, opts); refail == nil || refail.Signature() != fail.Signature() {
		t.Fatalf("shrunk protocol does not re-fail: %v", min)
	}

	// The written reproducer is a registry-style .scr: it re-parses to a
	// structurally identical global and re-fails identically.
	src, err := FormatReproducer("shrunk", min)
	if err != nil {
		t.Fatal(err)
	}
	p, err := scribble.Parse(src)
	if err != nil {
		t.Fatalf("reproducer does not re-parse: %v\n%s", err, src)
	}
	if p.Global.String() != min.String() {
		t.Fatalf("reproducer drifted through .scr:\n%s\nvs\n%s", p.Global, min)
	}
	if _, refail := RunPipeline(p.Global, opts); refail == nil || refail.Signature() != fail.Signature() {
		t.Fatalf("reparsed reproducer fails with %v, want %s", refail, fail.Signature())
	}
}

// TestShrinkerUnboundedLoop shrinks a sweep-discovered non-k-exhaustive
// protocol (seed 274 of the tier-1 sweep). The minimal shape for this
// failure class needs two unsynchronised producers feeding one consumer —
// a single eager sender stays k-exhaustive because its receiver can always
// drain — and that shape has five nodes. Beyond the size ceiling, the
// result must be a true local minimum: every single reduction either
// breaks well-formedness or loses the failure.
func TestShrinkerUnboundedLoop(t *testing.T) {
	opts := PipelineOptions{}
	g := Generate(sweepConfig(274))
	_, fail := RunPipeline(g, opts)
	if fail == nil || fail.Stage != StageKMCBound {
		t.Skipf("seed 274 no longer fails kmc-bound (generator changed?): %v", fail)
	}
	min := Shrink(g, FailsWith(fail, opts))
	if got := Size(min); got > 5 {
		t.Fatalf("shrunk to size %d, minimal two-producer loop is 5:\n%s", got, min)
	}
	if _, refail := RunPipeline(min, opts); refail == nil || refail.Stage != StageKMCBound {
		t.Fatalf("shrunk protocol fails with %v, want kmc-bound", refail)
	}
	fails := FailsWith(fail, opts)
	for _, cand := range reductions(min) {
		if Size(cand) < Size(min) && types.ValidateGlobal(cand) == nil && fails(cand) {
			t.Fatalf("not a local minimum: %s still fails at size %d", cand, Size(cand))
		}
	}
}

// TestShrinkNonFailure pins the guard: a protocol that does not fail is
// returned unchanged.
func TestShrinkNonFailure(t *testing.T) {
	g := CorpusGlobals()[0].Global
	out := Shrink(g, func(types.Global) bool { return false })
	if g.String() != out.String() {
		t.Fatalf("Shrink rewrote a non-failing protocol")
	}
}
