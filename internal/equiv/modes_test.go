package equiv

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fsm"
	"repro/internal/netchan"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestModesReplayReferenceCut is the trace oracle over every execution
// mode: for every registry protocol, each mode in Modes replays the
// reference cut and must observe exactly the reference traces. A new mode
// is one more entry in Modes.
func TestModesReplayReferenceCut(t *testing.T) {
	s := sched.New(sched.Options{Workers: 2, Quantum: 8})
	defer s.Close()
	rec := func(types.Role) TraceRecorder { return &TraceStrategy{} }
	for _, e := range append(protocols.Registry(), protocols.ExtraRegistry()...) {
		base, err := BuildSession(e)
		if err != nil {
			t.Fatal(err)
		}
		budgets, ref, err := ReferenceRun(base, 40)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, mode := range Modes {
			t.Run(e.Name+"/"+mode.String(), func(t *testing.T) {
				got, err := Replay(base.Fork(), mode, budgets, rec, s)
				if err != nil {
					t.Fatal(err)
				}
				for r, want := range ref {
					if len(want) == 0 {
						t.Errorf("%s: empty reference trace (the property would hold vacuously)", r)
					}
					if !reflect.DeepEqual(want, got[r]) {
						t.Errorf("%s: trace diverges from the reference:\n ref: %v\n got: %v", r, want, got[r])
					}
				}
			})
		}
	}
}

// badChooser picks an out-of-range option at every output state.
type badChooser struct{ TraceStrategy }

func (*badChooser) Choose(fsm.State, []fsm.Transition) int { return 99 }

// TestReferenceRunFaultReleasesClaims is the regression for a reference run
// that faults: the stepper that faulted and every sibling still holding its
// endpoint must be released, so the session's endpoints are claimable
// again.
func TestReferenceRunFaultReleasesClaims(t *testing.T) {
	e, err := Lookup("Streaming")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := BuildSession(e)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ReferenceRunWith(sess, 40, func(types.Role) TraceRecorder { return &badChooser{} })
	if err == nil {
		t.Fatal("reference run with an out-of-range strategy succeeded")
	}
	for _, r := range sess.Roles() {
		ep, err := sess.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		st, err := session.NewStepper(ep, sess.FSM(r), &TraceStrategy{}, 1)
		if errors.Is(err, session.ErrLinearity) {
			t.Fatalf("%s: endpoint still claimed after the faulted reference run", r)
		}
		if err != nil {
			t.Fatal(err)
		}
		st.Abort()
	}
}

// TestRunOverPipesWokenBySetNotify pins the readiness bridge of the
// deadline-armed stepped and scheduled runs: over netchan pipes a message
// lands after the pump's hop, so the run parks, and only the routes'
// notify hooks (installed by Run through Session.SetNotify) can wake it
// before its deadline. Without them the stepped loop and the scheduler
// would sleep to the deadline and end there.
func TestRunOverPipesWokenBySetNotify(t *testing.T) {
	e, err := Lookup("Ring")
	if err != nil {
		t.Fatal(err)
	}
	base, err := BuildSession(e)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := wire.TableFromLocals(e.Name, e.Locals)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Options{Workers: 2})
	defer s.Close()
	for _, mode := range []Mode{Stepped, Scheduled} {
		var routes []*netchan.Route
		inst := base.Fork().Rewire(func(roles ...types.Role) *session.Network {
			return session.NewCustomNetwork(func() channel.Substrate {
				r := netchan.Pipe(tab, netchan.Options{})
				routes = append(routes, r)
				return r
			}, roles...)
		})
		deadline := time.Now().Add(30 * time.Second)
		err := Run(inst, mode, Bound(60), func(types.Role) session.Strategy { return &TraceStrategy{} }, deadline, s)
		ended := time.Now()
		for _, r := range routes {
			r.Abandon()
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !ended.Before(deadline) {
			t.Fatalf("%s: the run ended only at its deadline", mode)
		}
	}
}
