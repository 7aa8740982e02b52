package kmc

import (
	"testing"

	"repro/internal/fsm"
	"repro/internal/project"
	"repro/internal/types"
)

func machine(t *testing.T, role types.Role, src string) *fsm.FSM {
	t.Helper()
	return fsm.MustFromLocal(role, types.MustParse(src))
}

func TestSimpleRequestReply(t *testing.T) {
	p := machine(t, "p", "q!req.q?rep.end")
	q := machine(t, "q", "p?req.p!rep.end")
	res := Check(MustNewSystem(p, q), 1)
	if !res.OK {
		t.Fatalf("request-reply rejected: %v", res.Violation)
	}
	if res.Configs == 0 {
		t.Error("no configurations explored")
	}
}

func TestExample2Deadlock(t *testing.T) {
	// Example 2 of the paper: both participants reordered to receive first.
	p := machine(t, "p", "q?l2.q!l1.end")
	q := machine(t, "q", "p?l1.p!l2.end")
	res := Check(MustNewSystem(p, q), 2)
	if res.OK {
		t.Fatal("deadlocked system accepted")
	}
	if res.Violation.Kind != Deadlock {
		t.Errorf("violation = %v, want deadlock", res.Violation.Kind)
	}
}

func TestExample2SafeReordering(t *testing.T) {
	// Only q reordered (send first): safe.
	p := machine(t, "p", "q!l1.q?l2.end")
	q := machine(t, "q", "p!l2.p?l1.end")
	res := Check(MustNewSystem(p, q), 2)
	if !res.OK {
		t.Fatalf("safe reordering rejected: %v", res.Violation)
	}
}

func TestUnspecifiedReception(t *testing.T) {
	p := machine(t, "p", "q!a.end")
	q := machine(t, "q", "p?b.end")
	res := Check(MustNewSystem(p, q), 1)
	if res.OK {
		t.Fatal("label mismatch accepted")
	}
	if res.Violation.Kind != UnspecifiedReception {
		t.Errorf("violation = %v, want unspecified reception", res.Violation.Kind)
	}
}

func TestOrphanMessage(t *testing.T) {
	p := machine(t, "p", "q!a.end")
	q := machine(t, "q", "end")
	res := Check(MustNewSystem(p, q), 1)
	if res.OK {
		t.Fatal("orphan message accepted")
	}
	if res.Violation.Kind != OrphanMessage {
		t.Errorf("violation = %v, want orphan message", res.Violation.Kind)
	}
}

func TestNotExhaustiveHospital(t *testing.T) {
	// The Hospital shape [7]: the optimised patient keeps sending data before
	// draining any acknowledgements. For every finite k the ack queue fills
	// while the patient still refuses to receive: not k-exhaustive.
	patient := machine(t, "p", "mu t.h!{d.t, stop.mu u.h?{ok.u, done.end}}")
	hospital := machine(t, "h", "mu t.p?{d.p!ok.t, stop.p!done.end}")
	for k := 1; k <= 3; k++ {
		res := Check(MustNewSystem(patient, hospital), k)
		if res.OK {
			t.Fatalf("hospital accepted at k=%d", k)
		}
		if res.Violation.Kind != NotExhaustive {
			t.Errorf("k=%d: violation = %v, want not k-exhaustive", k, res.Violation.Kind)
		}
	}
}

func TestExhaustivityNeedsLargerK(t *testing.T) {
	// p sends two values before any handshake; the receiver drains them.
	// Works at k >= 2 but at k = 1 the second send is still fireable after
	// the peer drains — so even k = 1 passes. Contrast with a sender that
	// waits for an ack that never comes before its peer drains: craft a true
	// k-sensitivity case: both parties send two messages to each other first.
	p := machine(t, "p", "q!a.q!b.q?x.q?y.end")
	q := machine(t, "q", "p!x.p!y.p?a.p?b.end")
	k, res := CheckUpTo(MustNewSystem(p, q), 4)
	if !res.OK {
		t.Fatalf("cross-sending system rejected: %v", res.Violation)
	}
	if k != 1 {
		// With draining allowed this is fine even at k=1; accept either, but
		// record the discovered bound for documentation.
		t.Logf("system required k=%d", k)
	}
}

func TestDoubleBufferingSystem(t *testing.T) {
	// Projections of the double-buffering global type are 1-MC, and the
	// system with the optimised kernel is 2-MC.
	g := types.MustParseGlobal("mu x.k->s:ready.s->k:value.t->k:ready.k->t:value.x")
	ms, err := project.ProjectFSMs(g)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(MustNewSystem(ms["k"], ms["s"], ms["t"]), 1)
	if !res.OK {
		t.Fatalf("projected system rejected: %v", res.Violation)
	}

	opt := machine(t, "k", "s!ready.mu x.s!ready.s?value.t?ready.t!value.x")
	k, res2 := CheckUpTo(MustNewSystem(opt, ms["s"], ms["t"]), 4)
	if !res2.OK {
		t.Fatalf("optimised system rejected: %v", res2.Violation)
	}
	t.Logf("optimised double buffering is %d-MC (%d configs)", k, res2.Configs)
}

func TestStreamingSystem(t *testing.T) {
	g := types.MustParseGlobal("mu x.t->s:ready.s->t:{value.x, stop.end}")
	ms, err := project.ProjectFSMs(g)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(MustNewSystem(ms["s"], ms["t"]), 1)
	if !res.OK {
		t.Fatalf("streaming system rejected: %v", res.Violation)
	}
}

func TestRingSystems(t *testing.T) {
	// Unoptimised ring: a sends to b, b to c, c back to a.
	a := machine(t, "a", "mu t.b!v.c?v.t")
	b := machine(t, "b", "mu t.a?v.c!v.t")
	c := machine(t, "c", "mu t.b?v.a!v.t")
	res := Check(MustNewSystem(a, b, c), 1)
	if !res.OK {
		t.Fatalf("ring rejected: %v", res.Violation)
	}
	// Optimised ring: every participant sends before receiving.
	bOpt := machine(t, "b", "mu t.c!v.a?v.t")
	cOpt := machine(t, "c", "mu t.a!v.b?v.t")
	res = Check(MustNewSystem(a, bOpt, cOpt), 1)
	if !res.OK {
		t.Fatalf("optimised ring rejected: %v", res.Violation)
	}
}

func TestSystemValidation(t *testing.T) {
	p := machine(t, "p", "q!a.end")
	if _, err := NewSystem(); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := NewSystem(p, p); err == nil {
		t.Error("duplicate roles accepted")
	}
	if _, err := NewSystem(p); err == nil {
		t.Error("dangling peer accepted")
	}
	q := machine(t, "q", "p?a.end")
	if _, err := NewSystem(p, q); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	if got := MustNewSystem(p, q).Roles(); len(got) != 2 || got[0] != "p" || got[1] != "q" {
		t.Errorf("Roles = %v", got)
	}
}

func TestCheckUpToFailure(t *testing.T) {
	p := machine(t, "p", "q?l2.q!l1.end")
	q := machine(t, "q", "p?l1.p!l2.end")
	k, res := CheckUpTo(MustNewSystem(p, q), 3)
	if res.OK {
		t.Fatal("deadlock accepted")
	}
	if k != 3 {
		t.Errorf("CheckUpTo stopped at k=%d, want maxK", k)
	}
}

func TestMixedStateMachineSupported(t *testing.T) {
	// k-MC accepts machines whose states mix sends and receives (§4.2 notes
	// k-MC verifies a wider FSM syntax than Definition 1).
	p := fsm.New("p")
	s1 := p.AddState()
	p.MustAddTransition(p.Initial(), fsm.Action{Dir: fsm.Send, Peer: "q", Label: "a", Sort: types.Unit}, s1)
	p.MustAddTransition(p.Initial(), fsm.Action{Dir: fsm.Recv, Peer: "q", Label: "b", Sort: types.Unit}, s1)
	// q mirrors: may receive a or send b.
	q := fsm.New("q")
	t1 := q.AddState()
	q.MustAddTransition(q.Initial(), fsm.Action{Dir: fsm.Recv, Peer: "p", Label: "a", Sort: types.Unit}, t1)
	q.MustAddTransition(q.Initial(), fsm.Action{Dir: fsm.Send, Peer: "p", Label: "b", Sort: types.Unit}, t1)
	// This system can deadlock-free? p!a then q?a ends both... but p?b / q!b
	// also matches; and p!a with q!b leaves both messages orphaned.
	res := Check(MustNewSystem(p, q), 1)
	if res.OK {
		t.Fatal("orphaning mixed system accepted")
	}
}

func TestQueueBoundRespected(t *testing.T) {
	// A sender that must buffer 3 messages ahead: at k=2 the system is not
	// 2-exhaustive? It is: the receiver can drain. But a *blocked* handshake
	// makes it fail: p sends 3 then waits for ack; q acks only after 3
	// messages. k=2 blocks p's third send while q cannot move? q CAN receive.
	// So this passes at every k; assert monotone success and config growth.
	p := machine(t, "p", "q!a.q!b.q!c.q?ack.end")
	q := machine(t, "q", "p?a.p?b.p?c.p!ack.end")
	r1 := Check(MustNewSystem(p, q), 1)
	r3 := Check(MustNewSystem(p, q), 3)
	if !r1.OK || !r3.OK {
		t.Fatalf("pipeline rejected: %v %v", r1.Violation, r3.Violation)
	}
	if r3.Configs <= r1.Configs {
		t.Errorf("larger k should reach more configs: k1=%d k3=%d", r1.Configs, r3.Configs)
	}
}

func TestCheckUpToClampsBound(t *testing.T) {
	// A bound below 1 is taken as 1, as Check takes k: CheckUpTo must still
	// run a check rather than return a zero Result with no violation.
	p := machine(t, "p", "q!a.end")
	q := machine(t, "q", "p?a.end")
	for _, maxK := range []int{0, -3} {
		k, res := CheckUpTo(MustNewSystem(p, q), maxK)
		if !res.OK || k != 1 || res.Configs == 0 {
			t.Errorf("CheckUpTo(maxK=%d) = k=%d %+v, want 1-MC", maxK, k, res)
		}
	}
	bad := MustNewSystem(machine(t, "p", "q!a.end"), machine(t, "q", "p?b.end"))
	if k, res := CheckUpTo(bad, 0); res.OK || res.Violation == nil || k != 1 {
		t.Errorf("CheckUpTo(maxK=0) on a failing system = k=%d %+v, want a violation at k=1", k, res)
	}
}

// MustNewSystem is NewSystem but panics on error.
func MustNewSystem(machines ...*fsm.FSM) *System {
	s, err := NewSystem(machines...)
	if err != nil {
		panic(err)
	}
	return s
}

// Roles returns the system's roles in machine order.
func (s *System) Roles() []types.Role { return s.roles }

// TestExplorerReuse pins the explorer free list: a check takes the storage
// a finished one returned, so a repeated passing check allocates nothing,
// and an explorer that grew past pooledBytes is dropped instead of kept.
func TestExplorerReuse(t *testing.T) {
	small := MustNewSystem(machine(t, "p", "q!a.q?b.end"), machine(t, "q", "p?a.p!b.end"))
	Check(small, 1)
	if n := testing.AllocsPerRun(50, func() { Check(small, 1) }); n != 0 {
		t.Errorf("a repeated passing check: %v allocs, want 0", n)
	}
	for len(explorers) > 0 {
		<-explorers
	}
	// A queue filling to k = 1000 gives keys of up to 1000 two-byte fields,
	// over 256 KiB of arena in all.
	big := MustNewSystem(machine(t, "p", "mu t.q!a.t"), machine(t, "q", "mu t.p?a.t"))
	if res := Check(big, 1000); !res.OK || res.Configs != 1001 {
		t.Fatalf("unbounded sender at k=1000: %+v", res)
	}
	if len(explorers) != 0 {
		t.Error("an explorer past pooledBytes went back to the free list")
	}
	Check(small, 1)
	if len(explorers) != 1 {
		t.Errorf("%d idle explorers after a small check, want 1", len(explorers))
	}
}
