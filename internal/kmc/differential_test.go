package kmc_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fsm"
	"repro/internal/kmc"
	"repro/internal/optimise"
	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/protofuzz"
	"repro/internal/types"
)

// The production checker must reproduce the reference checker
// (reference_test.go) exactly: the same verdict, the same Configs count, and
// on a failing check the same violation — kind, role, configuration and
// detail. The production checker defers exhaustivity to one fixpoint per
// explored graph, but it reports the first violation in breadth-first order
// with the Configs count of the moment the reference would have stopped
// there, so there is no intended difference to allow for.

func sameResult(t *testing.T, name string, got, want kmc.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: checker and reference disagree\n got  %+v %v\n want %+v %v", name, got, got.Violation, want, want.Violation)
	}
}

// agree compares Check at every k in 1..maxK and CheckUpTo(maxK), and
// returns how many of those checks failed.
func agree(t *testing.T, name string, ms []*fsm.FSM, maxK int) (failed int) {
	t.Helper()
	sys, err := kmc.NewSystem(ms...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for k := 1; k <= maxK; k++ {
		got := kmc.Check(sys, k)
		sameResult(t, fmt.Sprintf("%s k=%d", name, k), got, kmc.ReferenceCheck(sys, k))
		if !got.OK {
			failed++
		}
	}
	gotK, got := kmc.CheckUpTo(sys, maxK)
	wantK, want := kmc.ReferenceCheckUpTo(sys, maxK)
	if gotK != wantK {
		t.Errorf("%s: CheckUpTo(%d) returned k=%d, reference k=%d", name, maxK, gotK, wantK)
	}
	sameResult(t, fmt.Sprintf("%s upto %d", name, maxK), got, want)
	return failed
}

func machinesOf(t *testing.T, locals map[types.Role]types.Local) []*fsm.FSM {
	t.Helper()
	ms := map[types.Role]*fsm.FSM{}
	for r, l := range locals {
		m, err := fsm.FromLocal(r, l)
		if err != nil {
			t.Fatalf("machine for %s: %v", r, err)
		}
		ms[r] = m
	}
	return protocols.Machines(ms)
}

// referenceRoleCap bounds the optimised systems the reference checker
// explores here: the optimised 8-role FFT costs it seconds per bound.
const referenceRoleCap = 5

func TestDifferentialRegistry(t *testing.T) {
	for _, e := range append(protocols.Registry(), protocols.ExtraRegistry()...) {
		maxK := max(e.KmcBound, 3)
		agree(t, e.Name+"/plain", machinesOf(t, e.Locals), maxK)
		if e.Participants <= referenceRoleCap {
			agree(t, e.Name+"/system", machinesOf(t, e.System()), maxK)
			agree(t, e.Name+"/auto", machinesOf(t, e.AutoSystem()), maxK)
		}
	}
}

func TestDifferentialFig7Families(t *testing.T) {
	for n := 1; n <= 4; n++ {
		agree(t, fmt.Sprintf("streaming n=%d", n), protocols.StreamingUnrolledSystem(n), 3)
		agree(t, fmt.Sprintf("k-buffering n=%d", n), protocols.KBufferingSystem(n), 3)
		agree(t, fmt.Sprintf("nested-choice n=%d", n), protocols.NestedChoiceSystem(n), 3)
	}
	for n := 2; n <= 5; n++ {
		agree(t, fmt.Sprintf("ring n=%d", n), protocols.RingNSystem(n), 3)
	}
}

// TestDifferentialProtofuzz runs both checkers over generated protocols,
// projected and optimised with the fuzz pipeline's budget, at the bounds the
// pipeline probes.
func TestDifferentialProtofuzz(t *testing.T) {
	seeds := uint64(300)
	if testing.Short() {
		seeds = 60
	}
	opts := optimise.Options{MaxUnroll: 1, MaxPasses: 2, MaxCandidates: 32, Bound: 6}
	cells, failed := 0, 0
	for seed := uint64(0); seed < seeds; seed++ {
		g := protofuzz.Generate(protofuzz.Config{Seed: seed})
		locals, err := project.ProjectAll(g)
		if err != nil || len(locals) > referenceRoleCap {
			continue
		}
		name := fmt.Sprintf("seed %d", seed)
		failed += agree(t, name+"/plain", machinesOf(t, locals), 3)
		opt := map[types.Role]types.Local{}
		for r, l := range locals {
			res, err := optimise.Optimise(r, l, opts)
			if err != nil {
				t.Fatalf("%s: optimise %s: %v", name, r, err)
			}
			opt[r] = res.Best.Type
		}
		failed += agree(t, name+"/optimised", machinesOf(t, opt), 3)
		cells++
	}
	t.Logf("%d protocols, %d failing checks", cells, failed)
}

// TestDifferentialViolationKinds pins hand-built systems that fail with each
// violation kind, including failures found only after a blocked send was
// already seen, a blocked send that is freed only through configurations
// past the first unsafe one, and one that only its own sender could free.
func TestDifferentialViolationKinds(t *testing.T) {
	m := func(role types.Role, src string) *fsm.FSM { return fsm.MustFromLocal(role, types.MustParse(src)) }
	cases := []struct {
		name string
		ms   []*fsm.FSM
		k    int
		want kmc.ViolationKind
	}{
		{"deadlock", []*fsm.FSM{m("p", "q?l2.q!l1.end"), m("q", "p?l1.p!l2.end")}, 1, kmc.Deadlock},
		{"unspecified reception", []*fsm.FSM{m("p", "q!a.end"), m("q", "p?b.end")}, 1, kmc.UnspecifiedReception},
		{"sort mismatch", []*fsm.FSM{m("p", "q!a(int).end"), m("q", "p?a(nat).end")}, 1, kmc.UnspecifiedReception},
		{"orphan message", []*fsm.FSM{m("p", "q!a.end"), m("q", "end")}, 1, kmc.OrphanMessage},
		{"not exhaustive", []*fsm.FSM{
			m("p", "mu t.h!{d.t, stop.mu u.h?{ok.u, done.end}}"),
			m("h", "mu t.p?{d.p!ok.t, stop.p!done.end}"),
		}, 2, kmc.NotExhaustive},
		// The system halts with p's second send blocked by the bound.
		{"halts on the bound", []*fsm.FSM{m("p", "q!a.q!b.end"), m("q", "r?c.p?a.p?b.end"), m("r", "end")}, 1, kmc.NotExhaustive},
		// After p's first send, its second is blocked for good: q waits on r,
		// which never sends. The exploration goes on through s's send and
		// stops at t's unspecified reception, past the stuck send.
		{"stuck send before an unsafe configuration", []*fsm.FSM{
			m("p", "q!a.q!b.end"), m("q", "r?go.p?a.p?b.end"), m("r", "end"),
			m("s", "t!x.end"), m("t", "s?y.end"),
		}, 1, kmc.NotExhaustive},
		// The same, but r sends: p's blocked send is freed only through
		// configurations the exploration had not expanded when it stopped at
		// t's unspecified reception.
		{"send freed past the first unsafe configuration", []*fsm.FSM{
			m("p", "q!a.q!b.end"), m("q", "r?go.p?a.p?b.end"), m("r", "q!go.end"),
			m("s", "t!x.end"), m("t", "s?y.end"),
		}, 1, kmc.UnspecifiedReception},
		// p's second send to q is blocked after its first; q drains only
		// after r, which p itself must wake. p can move, so the system does
		// not halt, but no moves of the other machines alone free the send.
		{"send freed only by its own sender", []*fsm.FSM{
			mixedSender(),
			m("q", "r?go.p?a.p?b.end"),
			m("r", "p?go.q!go.end"),
		}, 1, kmc.NotExhaustive},
	}
	for _, c := range cases {
		sys := kmc.MustNewSystem(c.ms...)
		got := kmc.Check(sys, c.k)
		sameResult(t, c.name, got, kmc.ReferenceCheck(sys, c.k))
		if got.OK {
			t.Errorf("%s: accepted", c.name)
		} else if got.Violation.Kind != c.want {
			t.Errorf("%s: violation %v, want %v", c.name, got.Violation, c.want)
		}
		agree(t, c.name, c.ms, 3)
	}
}

// mixedSender is p: q!a, then either q!b or r!go followed by q!b. Its second
// state mixes sends to two peers, which k-MC accepts but local types cannot
// write.
func mixedSender() *fsm.FSM {
	p := fsm.New("p")
	send := func(peer types.Role, label types.Label) fsm.Action {
		return fsm.Action{Dir: fsm.Send, Peer: peer, Label: label, Sort: types.Unit}
	}
	s1, s2, s3 := p.AddState(), p.AddState(), p.AddState()
	p.MustAddTransition(p.Initial(), send("q", "a"), s1)
	p.MustAddTransition(s1, send("q", "b"), s2)
	p.MustAddTransition(s1, send("r", "go"), s3)
	p.MustAddTransition(s3, send("q", "b"), s2)
	return p
}
