package optimise

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/types"
)

func mp(t *testing.T, src string) types.Local {
	t.Helper()
	return types.MustParse(src)
}

// optimised runs Optimise and fails the test on error.
func optimised(t *testing.T, role types.Role, src string, opts Options) Result {
	t.Helper()
	res, err := Optimise(types.Role(role), types.MustParse(src), opts)
	if err != nil {
		t.Fatalf("Optimise(%s, %q): %v", role, src, err)
	}
	return res
}

func TestHoistNodeRing(t *testing.T) {
	// μt.a?v.c!v.t — the ring participant — hoists to μt.c!v.a?v.t.
	res := hoists(mp(t, "mu t.a?v.c!v.t"))
	want := mp(t, "mu t.c!v.a?v.t")
	found := false
	for _, r := range res {
		if types.AlphaEqualLocal(types.NormalizeLocal(r.t), types.NormalizeLocal(want)) {
			found = true
		}
	}
	if !found {
		t.Errorf("hoists did not produce %s; got %v", want, res)
	}
}

func TestHoistNodeBranching(t *testing.T) {
	// The Appendix B.4 ring-with-choice shape: the send choice moves in
	// front of the input, duplicating the input under each output branch.
	res := hoists(mp(t, "mu t.a?add.c!{add.t, sub.t}"))
	want := mp(t, "mu t.c!{add.a?add.t, sub.a?add.t}")
	found := false
	for _, r := range res {
		if types.AlphaEqualLocal(types.NormalizeLocal(r.t), types.NormalizeLocal(want)) {
			found = true
		}
	}
	if !found {
		t.Errorf("hoists did not produce %s; got %v", want, res)
	}
}

func TestHoistNodeRejectsMismatchedSends(t *testing.T) {
	// Input branches whose sends differ in label set cannot hoist.
	if res, ok := hoistNode(mp(t, "p?{a.q!x.end, b.q!y.end}")); ok {
		t.Errorf("mismatched sends hoisted: %v", res)
	}
	// Nor can branches whose continuations are not sends at all.
	if res, ok := hoistNode(mp(t, "p?{a.q!x.end, b.end}")); ok {
		t.Errorf("non-send continuation hoisted: %v", res)
	}
	// A node of any other shape costs no allocation.
	for _, src := range []string{"p?{a.q!x.end, b.q!y.end}", "p?{a.q!x.end, b.end}", "mu t.p!a.t", "p!a.q?b.end"} {
		n := mp(t, src)
		if allocs := testing.AllocsPerRun(10, func() { hoistNode(n) }); allocs != 0 {
			t.Errorf("hoistNode(%s) allocates %.0f times", src, allocs)
		}
	}
}

func TestPipelineStreaming(t *testing.T) {
	// Depth-1 pipelining of the streaming source derives exactly the paper's
	// hand-written optimisation, including the ready consumed after stop.
	res := pipelines(mp(t, "mu x.t?ready.t!{value(i32).x, stop.end}"), 1)
	want := mp(t, "t!value(i32).mu x.t?ready.t!{value(i32).x, stop.t?ready.end}")
	found := false
	for _, r := range res {
		if types.AlphaEqualLocal(types.NormalizeLocal(r.t), types.NormalizeLocal(want)) {
			found = true
		}
	}
	if !found {
		t.Errorf("pipelines did not produce the hand-written streaming optimisation; got %v", res)
	}
}

func TestPipelineDoubleBuffering(t *testing.T) {
	// The kernel's hoisted ready precedes any input, so the loop body is
	// unchanged and no exit patch is needed (Fig. 4b).
	res := pipelines(mp(t, "mu x.s!ready.s?value.t?ready.t!value.x"), 1)
	want := mp(t, "s!ready.mu x.s!ready.s?value.t?ready.t!value.x")
	found := false
	for _, r := range res {
		if types.AlphaEqualLocal(types.NormalizeLocal(r.t), types.NormalizeLocal(want)) {
			found = true
		}
	}
	if !found {
		t.Errorf("pipelines did not produce the hand-written double-buffering optimisation; got %v", res)
	}
}

func TestStraighten(t *testing.T) {
	// Directly nested binders collapse; unused binders are dropped.
	got := straighten(mp(t, "mu x.mu y.p!{a.x, b.y}"))
	if want := mp(t, "mu x.p!{a.x, b.x}"); !types.AlphaEqualLocal(got, want) {
		t.Errorf("straighten nested = %s, want %s", got, want)
	}
	got = straighten(types.Rec{Name: "x", Body: mp(t, "p!a.end")})
	if want := mp(t, "p!a.end"); !types.AlphaEqualLocal(got, want) {
		t.Errorf("straighten unused binder = %s, want %s", got, want)
	}
}

func TestOptimiseStreamingBeatsHandWritten(t *testing.T) {
	orig := "mu x.t?ready.t!{value(i32).x, stop.end}"
	hand := "t!value(i32).mu x.t?ready.t!{value(i32).x, stop.t?ready.end}"
	handCert, err := core.CheckTypes("s", mp(t, hand), mp(t, orig), core.Options{})
	if err != nil || !handCert.OK {
		t.Fatalf("hand-written optimisation did not certify: %v %v", handCert.OK, err)
	}
	res := optimised(t, "s", orig, Options{})
	if !res.Improved {
		t.Fatal("no improvement found for the streaming source")
	}
	if res.Best.Lookahead < handCert.Stats.MaxSendAhead {
		t.Errorf("best lookahead %d < hand-written %d", res.Best.Lookahead, handCert.Stats.MaxSendAhead)
	}
}

func TestOptimiseUnrollScalesLookahead(t *testing.T) {
	// Deeper unroll budgets must never lose lookahead, and should gain it on
	// the pipelinable streaming source.
	orig := "mu x.t?ready.t!{value(i32).x, stop.end}"
	prev := -1
	for _, u := range []int{1, 2, 3} {
		res := optimised(t, "s", orig, Options{MaxUnroll: u})
		if res.Best.Lookahead < prev {
			t.Errorf("MaxUnroll=%d: lookahead %d below MaxUnroll=%d's %d", u, res.Best.Lookahead, u-1, prev)
		}
		if res.Best.Lookahead <= res.Baseline {
			t.Errorf("MaxUnroll=%d: no lookahead gained", u)
		}
		prev = res.Best.Lookahead
	}
}

func TestOptimiseEveryCertificateHolds(t *testing.T) {
	// Re-verify independently that everything Optimise marked certified is
	// an asynchronous subtype of the original: an uncertified rewrite in the
	// output would be a bug, never an optimisation.
	for _, src := range []string{
		"mu x.t?ready.t!{value(i32).x, stop.end}",
		"mu t.a?v.c!v.t",
		"mu x.s!ready.s?value.t?ready.t!value.x",
		"mu t.p?{up.d!open.d?done.t, down.d!open.d?done.t}",
	} {
		res := optimised(t, "self", src, Options{})
		for _, c := range res.Certified {
			re, err := core.CheckTypes("self", c.Type, res.Original, core.Options{Bound: 32})
			if err != nil || !re.OK {
				t.Errorf("candidate %s of %q does not re-certify: ok=%v err=%v", c.Type, src, re.OK, err)
			}
		}
	}
}

func TestOptimiseNoFalsePositives(t *testing.T) {
	// The Hospital patient needs unbounded anticipation, beyond the bounded
	// algorithm: no rewrite may be returned, and the fallback is the
	// original itself.
	res := optimised(t, "p", "mu t.h!{d.h?ok.t, stop.h?done.end}", Options{})
	if res.Improved {
		t.Errorf("claimed improvement %s for the hospital patient", res.Best.Type)
	}
	if !types.AlphaEqualLocal(res.Best.Type, res.Original) {
		t.Errorf("fallback is not the original: %s", res.Best.Type)
	}
}

func TestOptimiseDeterministic(t *testing.T) {
	orig := "mu t.s?d0.s!{a0.mu u.s?d1.s!{a0.u, a1.t}, a1.t}"
	a := optimised(t, "r", orig, Options{})
	b := optimised(t, "r", orig, Options{})
	if a.Best.Type.String() != b.Best.Type.String() {
		t.Errorf("non-deterministic best: %s vs %s", a.Best.Type, b.Best.Type)
	}
	if a.Best.Lookahead != b.Best.Lookahead || len(a.Certified) != len(b.Certified) {
		t.Errorf("non-deterministic result shape")
	}
}

func TestOptimiseTraceCertificate(t *testing.T) {
	res := optimised(t, "b", "mu t.a?v.c!v.t", Options{Trace: true})
	if !res.Improved {
		t.Fatal("ring participant not improved")
	}
	if len(res.Best.Cert.Trace) == 0 {
		t.Fatal("Trace requested but certificate trace empty")
	}
	joined := strings.Join(res.Best.Cert.Trace, "\n")
	if !strings.Contains(joined, "visit") {
		t.Errorf("trace does not look like a derivation:\n%s", joined)
	}
}

func TestOptimiseRejectsMalformed(t *testing.T) {
	if _, err := Optimise("r", types.Var{Name: "x"}, Options{}); err == nil {
		t.Error("unbound variable accepted")
	}
}

// randLocal draws a local type over few names, so binders shadow one
// another and variables occur free, bound and captured.
func randLocal(r *rand.Rand, depth int) types.Local {
	names := []string{"x", "y"}
	if depth <= 0 || r.Intn(5) == 0 {
		if r.Intn(2) == 0 {
			return types.End{}
		}
		return types.Var{Name: names[r.Intn(len(names))]}
	}
	if r.Intn(4) == 0 {
		return types.Rec{Name: names[r.Intn(len(names))], Body: randLocal(r, depth-1)}
	}
	bs := make([]types.Branch, 1+r.Intn(3))
	for i := range bs {
		bs[i] = types.Branch{Label: types.Label(rune('a' + i)), Sort: types.Unit, Cont: randLocal(r, depth-1)}
	}
	if r.Intn(2) == 0 {
		return types.Send{Peer: "p", Branches: bs}
	}
	return types.Recv{Peer: "q", Branches: bs}
}

// randPath draws a route from t's root to one of its subterms.
func randPath(r *rand.Rand, t types.Local) []int {
	var path []int
	for r.Intn(4) != 0 {
		switch n := t.(type) {
		case types.Rec:
			path, t = append(path, 0), n.Body
			continue
		case types.Send:
			i := r.Intn(len(n.Branches))
			path, t = append(path, i), n.Branches[i].Cont
			continue
		case types.Recv:
			i := r.Intn(len(n.Branches))
			path, t = append(path, i), n.Branches[i].Cont
			continue
		}
		break
	}
	return path
}

func TestQuickAlphaKeyAtMatchesReplaceAt(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randLocal(r, 6)
		path := randPath(r, root)
		sub := randLocal(r, 3)
		got := string(types.AppendAlphaKeyAt(nil, root, path, sub))
		want := types.AlphaKey(replaceAt(root, path, sub))
		if got != want {
			t.Logf("root %s path %v sub %s: key %q, want %q", root, path, sub, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCertifiedCandidatesStraight(t *testing.T) {
	// The search keys a pool entry's hoists before building them on the
	// ground that every pool entry is straight: check it on the certified
	// ones, over shapes that pipeline, hoist and nest loops.
	for _, src := range []string{
		"mu x.t?ready.t!{value(i32).x, stop.end}",
		"mu t.a?v.c!v.t",
		"mu x.s!ready.s?value.t?ready.t!value.x",
		"mu t.s?d0.s!{a0.mu u.s?d1.s!{a0.u, a1.t}, a1.t}",
		"mu t.p?{up.d!open.d?done.t, down.d!open.d?done.t}",
	} {
		res := optimised(t, "r", src, Options{MaxPasses: 4, MaxUnroll: 3})
		for _, c := range res.Certified[1:] {
			if _, changed := straightened(c.Type); changed {
				t.Errorf("%s: candidate %s is not straight", src, c.Type)
			}
		}
	}
}
