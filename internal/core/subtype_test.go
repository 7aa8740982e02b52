package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/project"
	"repro/internal/types"
)

// check runs CheckTypes with a default bound and fails the test on error.
func check(t *testing.T, sub, sup string) bool {
	t.Helper()
	res, err := CheckTypes("self", types.MustParse(sub), types.MustParse(sup), Options{})
	if err != nil {
		t.Fatalf("CheckTypes(%q, %q): %v", sub, sup, err)
	}
	return res.OK
}

func TestPaperExample2SafeReordering(t *testing.T) {
	// Example 2: T′Q = p!ℓ2.p?ℓ1.end ≤ TQ = p?ℓ1.p!ℓ2.end (output anticipated
	// before an input: rule ⤳B).
	if !check(t, "p!l2.p?l1.end", "p?l1.p!l2.end") {
		t.Error("safe reordering rejected")
	}
}

func TestPaperExample2UnsafeReordering(t *testing.T) {
	// Example 2: T′P = q?ℓ2.q!ℓ1.end ≰ TP = q!ℓ1.q?ℓ2.end (anticipating an
	// input before an output deadlocks).
	if check(t, "q?l2.q!l1.end", "q!l1.q?l2.end") {
		t.Error("unsafe reordering accepted")
	}
}

func TestPaperDoubleBufferingKernel(t *testing.T) {
	// §3.2 worked example: T = s!ready.T′ ≤ T′ where
	// T′ = μx.s!ready.s?copy.t?ready.t!copy.x.
	sup := "mu x.s!ready.s?copy.t?ready.t!copy.x"
	sub := "s!ready.mu x.s!ready.s?copy.t?ready.t!copy.x"
	if !check(t, sub, sup) {
		t.Error("double-buffering optimisation rejected")
	}
	// The supertype is not a subtype of the optimised type in reverse... the
	// reverse direction anticipates nothing and in fact holds trivially? No:
	// the optimised type *requires* an extra leading send, so the projected
	// kernel cannot replace it (it would receive copy before the second
	// ready is sent, which the optimised protocol's peers may rely on). Our
	// algorithm must reject the reverse because the unrolled send never
	// aligns.
	if check(t, sup, sub) {
		t.Error("reverse double-buffering subtyping accepted")
	}
}

func TestPaperForgottenActionRejected(t *testing.T) {
	// Fig. A.14: T = μt.p?ℓ.t must NOT be a subtype of T′ = q?ℓ′.T: the
	// initial q?ℓ′ would be forgotten. The [asm] side condition
	// act(ρ′) ⊇ act(π′) rejects it.
	if check(t, "mu t.p?l.t", "q?lp.mu t.p?l.t") {
		t.Error("forgotten action accepted (asm side condition failed)")
	}
}

func TestPaperRingOptimisation(t *testing.T) {
	// Appendix B.4: ring with choice. T (optimised, sends before receiving)
	// is a subtype of T′ (projected).
	sup := "mu t.a?add.c!{add.t, sub.t}"
	sub := "mu t.c!{add.a?add.t, sub.a?add.t}"
	if !check(t, sub, sup) {
		t.Error("ring optimisation rejected")
	}
}

func TestPaperAlternatingBit(t *testing.T) {
	// Appendix B.4: the alternating bit receiver specification is a subtype
	// of its projection.
	sub := "mu t.s?{d0.s!a0.t, d1.s!a1.t}"
	sup := "mu t.s?d0.s!{a0.mu x.s?d1.s!{a0.x, a1.t}, a1.t}"
	if !check(t, sub, sup) {
		t.Error("alternating-bit subtyping rejected")
	}
}

func TestReflexivity(t *testing.T) {
	cases := []string{
		"end",
		"p!l.end",
		"mu x.s!ready.x",
		"mu x.s!ready.s?copy.t?ready.t!copy.x",
		"mu t.a?add.c!{add.t, sub.t}",
		"mu t.s?d0.s!{a0.mu x.s?d1.s!{a0.x, a1.t}, a1.t}",
		"t?ready.s!{value(i32).end, stop.end}",
	}
	for _, src := range cases {
		if !check(t, src, src) {
			t.Errorf("T ≤ T failed for %s", src)
		}
	}
}

func TestSynchronousSubtypingCases(t *testing.T) {
	// Internal choice: the subtype may offer FEWER outputs.
	if !check(t, "p!{a.end}", "p!{a.end, b.end}") {
		t.Error("output subset rejected")
	}
	if check(t, "p!{a.end, b.end}", "p!{a.end}") {
		t.Error("output superset accepted")
	}
	// External choice: the subtype may accept MORE inputs.
	if !check(t, "p?{a.end, b.end}", "p?{a.end}") {
		t.Error("input superset rejected")
	}
	if check(t, "p?{a.end}", "p?{a.end, b.end}") {
		t.Error("input subset accepted")
	}
	// Mismatched labels.
	if check(t, "p!a.end", "p!b.end") {
		t.Error("label mismatch accepted")
	}
	// Mismatched peers.
	if check(t, "p!a.end", "q!a.end") {
		t.Error("peer mismatch accepted")
	}
	// Continuations must also relate.
	if check(t, "p!a.p!x.end", "p!a.p!y.end") {
		t.Error("continuation mismatch accepted")
	}
}

// TestCheckRejectsUnknownSorts pins the registry gate on the certification
// path: a machine whose actions carry a sort nobody registered errors out
// (ErrUnknownSort) rather than certifying a protocol whose payloads have no
// meaning — on either side of the check, and for vectors over unknown
// elements; vectors over registered sorts pass.
func TestCheckRejectsUnknownSorts(t *testing.T) {
	known := "q!m(vec<complex128>).end"
	for _, tc := range []struct{ sub, sup string }{
		{"q!m(frob).end", known},
		{known, "q!m(frob).end"},
		{"q!m(vec<frob>).end", "q!m(vec<frob>).end"},
	} {
		_, err := CheckTypes("self", types.MustParse(tc.sub), types.MustParse(tc.sup), Options{})
		if !errors.Is(err, ErrUnknownSort) {
			t.Errorf("Check(%q, %q) err = %v, want ErrUnknownSort", tc.sub, tc.sup, err)
		}
	}
	res, err := CheckTypes("self", types.MustParse(known), types.MustParse(known), Options{})
	if err != nil || !res.OK {
		t.Errorf("vec<complex128> reflexive check: ok=%v err=%v", res.OK, err)
	}
}

func TestSortSubtyping(t *testing.T) {
	// Outputs are covariant: sending nat where int is expected is fine.
	if !check(t, "p!l(nat).end", "p!l(int).end") {
		t.Error("covariant output rejected")
	}
	if check(t, "p!l(int).end", "p!l(nat).end") {
		t.Error("unsound output sort accepted")
	}
	// Inputs are contravariant: accepting int where nat is expected is fine.
	if !check(t, "p?l(int).end", "p?l(nat).end") {
		t.Error("contravariant input rejected")
	}
	if check(t, "p?l(nat).end", "p?l(int).end") {
		t.Error("unsound input sort accepted")
	}
}

func TestEndVersusAction(t *testing.T) {
	if check(t, "end", "p!l.end") {
		t.Error("end accepted as subtype of an action")
	}
	if check(t, "p!l.end", "end") {
		t.Error("action accepted as subtype of end")
	}
	if !check(t, "end", "end") {
		t.Error("end ≤ end rejected")
	}
}

func TestUnrolledStreamingOptimisation(t *testing.T) {
	// The streaming benchmark's AMR: send n values before waiting for the
	// corresponding readys. For all small n, the unrolled type is a subtype
	// of the projection μx.t?ready.t!value.x.
	sup := types.MustParse("mu x.t?ready.t!value.x")
	for n := 1; n <= 6; n++ {
		sub := unrolledStream(n)
		res, err := CheckTypes("s", sub, sup, Options{Bound: 2 * (n + 2)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Errorf("unroll %d rejected", n)
		}
	}
}

// unrolledStream builds t!value^n . μx.t?ready.t!value.x.
func unrolledStream(n int) types.Local {
	t := types.MustParse("mu x.t?ready.t!value.x")
	for i := 0; i < n; i++ {
		t = types.LSend("t", "value", types.Unit, t)
	}
	return t
}

func TestKBufferingOptimisation(t *testing.T) {
	// The k-buffering generalisation of the double-buffering kernel: unroll
	// k leading s!ready sends.
	sup := types.MustParse("mu x.s!ready.s?copy.t?ready.t!copy.x")
	for k := 1; k <= 6; k++ {
		sub := sup
		for i := 0; i < k; i++ {
			sub = types.LSend("s", "ready", types.Unit, sub)
		}
		res, err := CheckTypes("k", sub, sup, Options{Bound: 2 * (k + 2)})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Errorf("%d-buffering rejected", k)
		}
	}
}

func TestSubtypingAgainstProjection(t *testing.T) {
	// Top-down workflow: project the double-buffering global type, then
	// verify the optimised kernel against the projection.
	g := types.MustParseGlobal("mu x.k->s:ready.s->k:value.t->k:ready.k->t:value.x")
	proj := project.MustProject(g, "k")
	opt := types.MustParse("s!ready.mu x.s!ready.s?value.t?ready.t!value.x")
	res, err := CheckTypes("k", opt, proj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Error("optimised kernel rejected against projection")
	}
	// The *unoptimised* projections of the other roles are reflexively fine.
	for _, r := range []types.Role{"s", "t"} {
		p := project.MustProject(g, r)
		res, err := CheckTypes(r, p, p, Options{})
		if err != nil || !res.OK {
			t.Errorf("projection of %s not self-subtype: %v %v", r, res.OK, err)
		}
	}
}

func TestRejectsNonDirectedMachines(t *testing.T) {
	mixed := fsm.New("p")
	s2 := mixed.AddState()
	mixed.MustAddTransition(mixed.Initial(), fsm.Action{Dir: fsm.Send, Peer: "q", Label: "a", Sort: types.Unit}, s2)
	mixed.MustAddTransition(mixed.Initial(), fsm.Action{Dir: fsm.Recv, Peer: "q", Label: "b", Sort: types.Unit}, s2)
	ok := fsm.MustFromLocal("p", types.MustParse("q!a.end"))
	if _, err := Check(mixed, ok, Options{}); err == nil {
		t.Error("mixed subtype machine accepted")
	}
	if _, err := Check(ok, mixed, Options{}); err == nil {
		t.Error("mixed supertype machine accepted")
	}
}

func TestBoundExhaustion(t *testing.T) {
	// With a bound of 1 the double-buffering optimisation cannot close its
	// loop (the derivation needs two visits of the loop head).
	sub := types.MustParse("s!ready.mu x.s!ready.s?copy.t?ready.t!copy.x")
	sup := types.MustParse("mu x.s!ready.s?copy.t?ready.t!copy.x")
	res, err := CheckTypes("k", sub, sup, Options{Bound: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Skip("bound 1 unexpectedly sufficient; derivation shallower than the paper's")
	}
	// A larger bound succeeds.
	res, err = CheckTypes("k", sub, sup, Options{Bound: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Error("bound 4 insufficient for double buffering")
	}
}

func TestFailFastEquivalence(t *testing.T) {
	// Fail-fast is an optimisation only: outcomes agree with it disabled.
	pairs := [][2]string{
		{"p!l2.p?l1.end", "p?l1.p!l2.end"},
		{"q?l2.q!l1.end", "q!l1.q?l2.end"},
		{"s!ready.mu x.s!ready.s?copy.t?ready.t!copy.x", "mu x.s!ready.s?copy.t?ready.t!copy.x"},
		{"mu t.c!{add.a?add.t, sub.a?add.t}", "mu t.a?add.c!{add.t, sub.t}"},
		{"mu t.p?l.t", "q?lp.mu t.p?l.t"},
	}
	for _, p := range pairs {
		fast, err := CheckTypes("self", types.MustParse(p[0]), types.MustParse(p[1]), Options{})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := CheckTypes("self", types.MustParse(p[0]), types.MustParse(p[1]), Options{NoFailFast: true})
		if err != nil {
			t.Fatal(err)
		}
		if fast.OK != slow.OK {
			t.Errorf("fail-fast changed outcome for %s ≤ %s: %v vs %v", p[0], p[1], fast.OK, slow.OK)
		}
		if fast.OK && fast.Stats.Visits > slow.Stats.Visits {
			t.Logf("note: fail-fast did more work on %s ≤ %s", p[0], p[1])
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	res, err := CheckTypes("k",
		types.MustParse("s!ready.mu x.s!ready.s?copy.t?ready.t!copy.x"),
		types.MustParse("mu x.s!ready.s?copy.t?ready.t!copy.x"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Visits == 0 || res.Stats.Reductions == 0 || res.Stats.MaxPrefix == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

func TestStreamingWithChoiceOptimisation(t *testing.T) {
	// The full streaming protocol (with stop): the optimised source unrolls
	// one value send before the loop; after stopping it has no pending
	// obligations because each unrolled send anticipated a ready receive.
	sup := "mu x.t?ready.t!{value.x, stop.end}"
	// One-step unroll that preserves the choice structure: send a value
	// immediately, then behave as a machine which, after each ready, either
	// sends a value (loop) or sends stop and *then* consumes the final
	// outstanding ready.
	sub := "t!value.mu x.t?ready.t!{value.x, stop.t?ready.end}"
	if !check(t, sub, sup) {
		t.Error("optimised streaming with choice rejected")
	}
}

// TestSupertypeScratchReuse checks that the visitor scratch a Supertype
// reuses across checks (history, prefixes, ρ, the assumption stack) leaks
// nothing from one check into the next: every candidate of the sequence
// gets the same Result, Stats and trace included, from one Supertype as
// from a fresh Check. The sequence mixes verdicts, a fail-fast rejection
// deep in a derivation, a traced check, a tighter bound, and machines that
// grow and shrink between checks.
func TestSupertypeScratchReuse(t *testing.T) {
	msup := fsm.MustFromLocal("k", types.MustParse("mu x.s!ready.s?copy.t?ready.t!copy.x"))
	sup, err := NewSupertype(msup)
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	prev := 0
	const deep = "s!ready.s?copy.t?ready.t!copy.mu x.t?ready.s!ready.s?copy.t!copy.x"
	for _, c := range []struct {
		name, sub string
		opts      Options
		ok        bool
	}{
		{"reflexive", "mu x.s!ready.s?copy.t?ready.t!copy.x", Options{}, true},
		{"input anticipated", "mu x.s?copy.s!ready.t?ready.t!copy.x", Options{}, false},
		{"send hoisted, more states", "s!ready.mu x.s!ready.s?copy.t?ready.t!copy.x", Options{}, true},
		{"fail-fast after an iteration", deep, Options{}, false},
		{"traced", "s!ready.mu x.s!ready.s?copy.t?ready.t!copy.x", Options{Trace: true}, true},
		{"fewer states", "mu x.s!ready.s?copy.t!copy.t?ready.x", Options{}, true},
		{"two sends hoisted, tight bound", "s!ready.s!ready.mu x.s!ready.s?copy.t?ready.t!copy.x", Options{Bound: 1}, false},
		{"two sends hoisted", "s!ready.s!ready.mu x.s!ready.s?copy.t?ready.t!copy.x", Options{}, true},
		{"no fail-fast", deep, Options{NoFailFast: true}, false},
		{"reflexive again", "mu x.s!ready.s?copy.t?ready.t!copy.x", Options{}, true},
	} {
		msub := fsm.MustFromLocal("k", types.MustParse(c.sub))
		grew = grew || prev > 0 && msub.NumStates() > prev
		prev = msub.NumStates()
		got, err := sup.Check(msub, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := Check(msub, msup, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused Supertype gave %+v, a fresh Check %+v", c.name, got, want)
		}
		if got.OK != c.ok {
			t.Errorf("%s: OK = %v, want %v", c.name, got.OK, c.ok)
		}
	}
	if !grew {
		t.Error("no candidate had more states than the one before it")
	}
	// The deep candidate is rejected by the fail-early rule, after the
	// derivation has walked a whole loop iteration.
	res, err := CheckTypes("k", types.MustParse(deep), types.MustParse("mu x.s!ready.s?copy.t?ready.t!copy.x"), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if last := res.Trace[len(res.Trace)-1]; res.Stats.Visits < 5 || !strings.Contains(last, "fail-early") {
		t.Errorf("deep candidate not rejected fail-early deep in the derivation: %d visits, last rule %q", res.Stats.Visits, last)
	}
}
