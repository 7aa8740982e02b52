package session

import (
	"repro/internal/fsm"
	"repro/internal/types"
)

// Strategy decides a process's internal choices and payloads when a process
// is driven directly from its FSM (Drive). Implementations must be
// deterministic per call sequence if reproducibility is needed.
type Strategy interface {
	// Choose picks one of the available output transitions at an internal
	// choice. The returned index must be in range.
	Choose(state fsm.State, options []fsm.Transition) int
	// Payload produces the value sent for the chosen output.
	Payload(act fsm.Action) any
	// Received is informed of each input, e.g. to accumulate results.
	Received(act fsm.Action, value any)
}

// StrategyResetter is implemented by strategies whose accumulated state can
// be rewound for a fresh protocol instance. The scheduler's pooled path
// resets a recycled session's strategies instead of allocating new ones;
// a stateful strategy that does not implement it simply gets replaced per
// instance by the caller.
type StrategyResetter interface {
	ResetStrategy()
}

// FirstBranch is a Strategy that always selects the first option and sends
// nil payloads; useful for smoke-driving protocols.
type FirstBranch struct{}

// Choose implements Strategy.
func (FirstBranch) Choose(fsm.State, []fsm.Transition) int { return 0 }

// Payload implements Strategy.
func (FirstBranch) Payload(fsm.Action) any { return nil }

// Received implements Strategy.
func (FirstBranch) Received(fsm.Action, any) {}

// ResetStrategy implements StrategyResetter; FirstBranch is stateless.
func (FirstBranch) ResetStrategy() {}

// RoundRobin is a Strategy cycling through the options of every choice, so
// repeated loops exercise all branches.
type RoundRobin struct {
	n int
	// Values optionally supplies payloads per label.
	Values map[types.Label]any
	// Seen collects every received (label, value) pair.
	Seen []ReceivedMessage
}

// ReceivedMessage is one input recorded by RoundRobin.
type ReceivedMessage struct {
	Label types.Label
	Value any
}

// Choose implements Strategy.
func (r *RoundRobin) Choose(_ fsm.State, options []fsm.Transition) int {
	r.n++
	return (r.n - 1) % len(options)
}

// Payload implements Strategy.
func (r *RoundRobin) Payload(act fsm.Action) any {
	if r.Values == nil {
		return nil
	}
	return r.Values[act.Label]
}

// Received implements Strategy.
func (r *RoundRobin) Received(act fsm.Action, value any) {
	r.Seen = append(r.Seen, ReceivedMessage{Label: act.Label, Value: value})
}

// ResetStrategy implements StrategyResetter: the choice cursor rewinds and
// the received log is truncated (keeping its backing array), so a recycled
// instance replays the same branch schedule as a fresh one.
func (r *RoundRobin) ResetStrategy() {
	r.n = 0
	r.Seen = r.Seen[:0]
}

var (
	_ StrategyResetter = FirstBranch{}
	_ StrategyResetter = (*RoundRobin)(nil)
)

// Drive executes a process for the endpoint directly from a verified
// machine: a Stepper stepped to the end, waiting on the route it refused
// on after every would-block. It runs until the machine reaches a final
// state or maxSteps actions were performed; a budget exhaustion on an
// infinite protocol returns ErrStopped so callers under Run treat it as a
// clean bounded execution. Drive takes no claim of its own: it runs inside
// Run/TrySession, which already hold the endpoint. With a deadline armed on
// the endpoint (SetDeadline) a wait past it fails typed with a
// *TimeoutError instead of hanging. Like a deadline-armed Send, Drive never
// blocks in a substrate's Send or Recv. On a monitored endpoint m must be
// the monitor's machine (ErrForeignMachine otherwise).
func Drive(e *Endpoint, m *fsm.FSM, strat Strategy, maxSteps int) error {
	st, err := newStepper(e, m, strat, maxSteps)
	if err != nil {
		return err
	}
	for {
		done, err := st.Step()
		if done {
			return err
		}
		if err == ErrWouldBlock {
			if err := st.wait(e.deadline); err != nil {
				return err
			}
		}
	}
}
