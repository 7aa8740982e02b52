package protocols

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kmc"
	"repro/internal/project"
	"repro/internal/soundbinary"
	"repro/internal/types"
)

func TestRegistryWellFormed(t *testing.T) {
	reg := Registry()
	if len(reg) != 17 {
		t.Fatalf("registry has %d rows, want 17 (Table 1)", len(reg))
	}
	for _, e := range reg {
		if e.Global != nil {
			if err := types.ValidateGlobal(e.Global); err != nil {
				t.Errorf("%s: global: %v", e.Name, err)
			}
			if got := len(types.Roles(e.Global)); got != e.Participants {
				t.Errorf("%s: global has %d roles, entry says %d", e.Name, got, e.Participants)
			}
		}
		if len(e.Locals) != e.Participants {
			t.Errorf("%s: %d locals, %d participants", e.Name, len(e.Locals), e.Participants)
		}
		for r, l := range e.Locals {
			if err := types.ValidateLocal(l); err != nil {
				t.Errorf("%s: local %s: %v", e.Name, r, err)
			}
		}
		for r, l := range e.Optimised {
			if err := types.ValidateLocal(l); err != nil {
				t.Errorf("%s: optimised %s: %v", e.Name, r, err)
			}
			if _, ok := e.Locals[r]; !ok {
				t.Errorf("%s: optimised role %s has no baseline local", e.Name, r)
			}
		}
		if e.AMR != (len(e.Optimised) > 0) {
			t.Errorf("%s: AMR flag inconsistent with optimised set", e.Name)
		}
	}
}

func TestLocalsMatchProjections(t *testing.T) {
	// For every entry with a global type, the registered locals must be
	// exactly the projections — they are the FSMs M of Fig. 1a.
	for _, e := range Registry() {
		if e.Global == nil {
			continue
		}
		projs, err := project.ProjectAll(e.Global)
		if err != nil {
			t.Errorf("%s: projection failed: %v", e.Name, err)
			continue
		}
		for r, want := range projs {
			got, ok := e.Locals[r]
			if !ok {
				t.Errorf("%s: missing local for %s", e.Name, r)
				continue
			}
			if !types.EqualLocal(types.NormalizeLocal(got), types.NormalizeLocal(want)) {
				t.Errorf("%s: local for %s = %s, projection = %s", e.Name, r, got, want)
			}
		}
	}
}

func TestOptimisationsVerifiedBySubtyping(t *testing.T) {
	// Every optimised endpoint must be an asynchronous subtype of its
	// baseline — except Hospital, whose optimisation needs unbounded
	// anticipation and is expected to exceed any bound (the amber cell of
	// Table 1).
	for _, e := range Registry() {
		for r, opt := range e.Optimised {
			res, err := core.CheckTypes(r, opt, e.Locals[r], core.Options{Bound: 8})
			if err != nil {
				t.Errorf("%s/%s: %v", e.Name, r, err)
				continue
			}
			if e.Name == "Hospital" {
				if res.OK {
					t.Errorf("Hospital: bounded algorithm unexpectedly verified unbounded anticipation")
				}
				continue
			}
			if !res.OK {
				t.Errorf("%s: optimised %s is not a subtype of its projection", e.Name, r)
			}
		}
	}
}

func TestSystemsAreKMC(t *testing.T) {
	// Every runnable system (locals overridden by optimised endpoints) must
	// be k-MC within the registered bound — except Hospital.
	for _, e := range Registry() {
		sys, err := kmc.NewSystem(Machines(FSMs(e.System()))...)
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		k, res := kmc.CheckUpTo(sys, e.KmcBound)
		if e.Name == "Hospital" {
			if res.OK {
				t.Error("Hospital: k-MC unexpectedly succeeded")
			}
			continue
		}
		if !res.OK {
			t.Errorf("%s: not %d-MC: %v", e.Name, e.KmcBound, res.Violation)
		} else {
			t.Logf("%s: %d-MC with %d configs", e.Name, k, res.Configs)
		}
	}
}

func TestUnoptimisedSystemsAreKMC(t *testing.T) {
	// The baseline systems (pure projections) are all 1-MC except the
	// alternating-bit (whose optimised receiver is part of the row) — check
	// the plain locals too.
	for _, e := range Registry() {
		if e.Name == "Hospital" {
			continue // the plain hospital locals are fine; included below
		}
		sys, err := kmc.NewSystem(Machines(FSMs(e.Locals))...)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		_, res := kmc.CheckUpTo(sys, 2)
		if !res.OK {
			t.Errorf("%s: projected system not 2-MC: %v", e.Name, res.Violation)
		}
	}
	// Plain hospital (alternating) is 1-MC.
	h := Hospital()
	sys, err := kmc.NewSystem(Machines(FSMs(h.Locals))...)
	if err != nil {
		t.Fatal(err)
	}
	if res := kmc.Check(sys, 1); !res.OK {
		t.Errorf("plain hospital not 1-MC: %v", res.Violation)
	}
}

func TestHospitalSoundBinary(t *testing.T) {
	h := Hospital()
	res, err := soundbinary.CheckTypes("p", h.Optimised["p"], h.Locals["p"], soundbinary.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Error("SoundBinary rejected the hospital optimisation")
	}
}

func TestStreamingUnrolledFamily(t *testing.T) {
	for _, n := range []int{0, 1, 5, 25} {
		sub, sup := StreamingUnrolled(n)
		res, err := core.CheckTypes("s", sub, sup, core.Options{Bound: 2*n + 8})
		if err != nil || !res.OK {
			t.Errorf("unroll %d rejected (err=%v)", n, err)
		}
		sys, err := kmc.NewSystem(StreamingUnrolledSystem(n)...)
		if err != nil {
			t.Fatal(err)
		}
		// For n ≥ 2, k = 1 is not exhaustive: while the source is still
		// mid-unroll the sink's next ready can never fire. The bound must
		// grow with the unroll depth — exactly why the k-MC side of Fig. 7
		// scales with n.
		if n >= 2 {
			if res := kmc.Check(sys, 1); res.OK {
				t.Errorf("unroll %d system unexpectedly 1-MC", n)
			}
		}
		if res := kmc.Check(sys, n+1); !res.OK {
			t.Errorf("unroll %d system not %d-MC: %v", n, n+1, res.Violation)
		}
	}
}

func TestKBufferingFamily(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10} {
		sub, sup := KBuffering(n)
		res, err := core.CheckTypes("k", sub, sup, core.Options{Bound: 2*n + 8})
		if err != nil || !res.OK {
			t.Errorf("k-buffering %d rejected (err=%v)", n, err)
		}
		sys, err := kmc.NewSystem(KBufferingSystem(n)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, res := kmc.CheckUpTo(sys, n+1); !res.OK {
			t.Errorf("k-buffering %d system rejected: %v", n, res.Violation)
		}
	}
}

func TestNestedChoiceFamily(t *testing.T) {
	for n := 1; n <= 3; n++ {
		sub, sup := NestedChoice(n)
		if err := types.ValidateLocal(sub); err != nil {
			t.Fatalf("T%d invalid: %v", n, err)
		}
		res, err := core.CheckTypes("self", sub, sup, core.Options{Bound: 8})
		if err != nil || !res.OK {
			t.Errorf("nested choice %d rejected (err=%v)", n, err)
		}
		sys, err := kmc.NewSystem(NestedChoiceSystem(n)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, res := kmc.CheckUpTo(sys, 2); !res.OK {
			t.Errorf("nested choice %d system rejected: %v", n, res.Violation)
		}
	}
}

func TestRingNFamily(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		plain, opt := RingN(n)
		if len(plain) != n || len(opt) != n {
			t.Fatalf("ring %d has wrong size", n)
		}
		// Each optimised participant is a subtype of its projection.
		for i := 0; i < n; i++ {
			r := RingRole(i)
			res, err := core.CheckTypes(r, opt[r], plain[r], core.Options{Bound: 8})
			if err != nil || !res.OK {
				t.Errorf("ring %d: participant %s rejected (err=%v)", n, r, err)
			}
		}
		// The optimised system is 1-MC (one value in flight per edge).
		sys, err := kmc.NewSystem(RingNSystem(n)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, res := kmc.CheckUpTo(sys, 2); !res.OK {
			t.Errorf("ring %d system rejected: %v", n, res.Violation)
		}
	}
}

func TestDualAndRename(t *testing.T) {
	orig := types.MustParse("mu t.o!{a.o?b.t, c.end}")
	d := dualOf(orig)
	want := types.MustParse("mu t.o?{a.o!b.t, c.end}")
	if !types.EqualLocal(d, want) {
		t.Errorf("Dual = %s, want %s", d, want)
	}
	if !types.EqualLocal(dualOf(d), orig) {
		t.Error("Dual not involutive")
	}
	rn := renamePeer(orig, "o", "z")
	want2 := types.MustParse("mu t.z!{a.z?b.t, c.end}")
	if !types.EqualLocal(rn, want2) {
		t.Errorf("RenamePeer = %s", rn)
	}
}

func TestFFTGlobalShape(t *testing.T) {
	g := FFTGlobal()
	if err := types.ValidateGlobal(g); err != nil {
		t.Fatal(err)
	}
	roles := types.Roles(g)
	if len(roles) != 8 {
		t.Fatalf("FFT global has %d roles", len(roles))
	}
	// 24 interactions: walk the spine.
	count := 0
	cur := g
	for {
		c, ok := cur.(types.Comm)
		if !ok {
			break
		}
		count++
		cur = c.Branches[0].Cont
	}
	if count != 24 {
		t.Errorf("FFT global has %d interactions, want 24", count)
	}
}

func TestSystemOverride(t *testing.T) {
	e := OptimisedDoubleBuffering()
	sys := e.System()
	if types.EqualLocal(sys["k"], e.Locals["k"]) {
		t.Error("System did not apply the optimised kernel")
	}
	if !types.EqualLocal(sys["s"], e.Locals["s"]) {
		t.Error("System changed an unoptimised role")
	}
}
