package session

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/types"
)

// driveSession runs every role of a verified session via Drive with its own
// strategy, returning the first error.
func driveSession(t *testing.T, sess *Session, strats map[types.Role]Strategy, maxSteps int) error {
	t.Helper()
	procs := map[types.Role]func(*Endpoint) error{}
	for _, role := range sess.Roles() {
		m := sess.FSM(role)
		strat := strats[role]
		if strat == nil {
			strat = FirstBranch{}
		}
		procs[role] = func(e *Endpoint) error {
			return Drive(e, m, strat, maxSteps)
		}
	}
	return sess.Run(procs)
}

func TestDriveTerminatingRegistryProtocols(t *testing.T) {
	// Drive every terminating protocol through the real concurrent runtime
	// with round-robin choices, fully monitored.
	names := map[string]bool{
		"Two Adder": true, "Three Adder": true, "Streaming": true,
		"Authentication": true, "Client-Server Log": true,
	}
	all := append(protocols.Registry(), protocols.ExtraRegistry()...)
	for _, e := range all {
		terminating := names[e.Name] || e.Name == "Two Buyer" || e.Name == "Travel Agency" ||
			e.Name == "OAuth-like" || e.Name == "Scatter-Gather (4 workers)"
		if !terminating {
			continue
		}
		fsms := protocols.FSMs(e.Locals)
		sess, err := BottomUp(2, protocols.Machines(fsms)...)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		strats := map[types.Role]Strategy{}
		for r := range fsms {
			strats[r] = &RoundRobin{}
		}
		if err := driveSession(t, sess, strats, 500); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

func TestDriveOptimisedStreaming(t *testing.T) {
	// Drive the AMR-optimised source against the plain sink: the top-down
	// session accepts the optimised machine, and Drive executes it (first
	// value sent before any ready arrives).
	e := protocols.OptimisedStreaming()
	opt := fsm.MustFromLocal("s", e.Optimised["s"])
	sess, err := TopDown(e.Global, map[types.Role]*fsm.FSM{"s": opt}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink := &RoundRobin{Values: map[types.Label]any{"value": 1}}
	err = driveSession(t, sess, map[types.Role]Strategy{
		"s": &RoundRobin{Values: map[types.Label]any{"value": 42}},
		"t": sink,
	}, 200)
	if err != nil {
		t.Fatal(err)
	}
	// The sink must have received at least one value and the final stop.
	var labels []types.Label
	for _, m := range sink.Seen {
		labels = append(labels, m.Label)
	}
	if len(labels) < 2 || labels[len(labels)-1] != "stop" {
		t.Errorf("sink saw %v", labels)
	}
}

func TestDriveBudgetOnInfiniteProtocol(t *testing.T) {
	// A single endpoint driven against a hand-fed partner: budget exhaustion
	// on an infinite machine returns ErrStopped.
	net := NewNetwork("a", "b")
	ea, eb := net.Endpoint("a"), net.Endpoint("b")
	m := fsm.MustFromLocal("a", types.MustParse("mu t.b!ping.b?pong.t"))
	done := make(chan error, 1)
	go func() {
		done <- Drive(ea, m, FirstBranch{}, 10)
	}()
	for i := 0; i < 5; i++ {
		if _, err := eb.ReceiveLabel("a", "ping"); err != nil {
			t.Fatal(err)
		}
		if err := eb.Send("a", "pong", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; !errors.Is(err, ErrStopped) {
		t.Errorf("Drive = %v, want ErrStopped", err)
	}
}

func TestDriveBadStrategy(t *testing.T) {
	net := NewNetwork("a", "b")
	ea := net.Endpoint("a")
	m := fsm.MustFromLocal("a", types.MustParse("b!{x.end, y.end}"))
	err := Drive(ea, m, badStrategy{}, 10)
	if err == nil {
		t.Error("out-of-range choice accepted")
	}
}

type badStrategy struct{ FirstBranch }

func (badStrategy) Choose(fsm.State, []fsm.Transition) int { return 99 }
