// Package chaos is the fault-injection harness for the runtime's failure
// semantics: it drives verified protocols over networks of channel.Faulty
// routes — deterministic, seed-scheduled would-block storms, stalls and
// early closes — across the runtime's execution modes (equiv.Modes, run
// by equiv.Run under a uniform budget bound and a per-run deadline), and
// classifies each run against the failure trichotomy:
//
//   - Clean: the protocol completed (or stopped deliberately at its budget)
//     despite the injected perturbation.
//   - Timeout: a deadline fired and the run ended with a typed error
//     reaching session.ErrTimeout — a stalled peer cost bounded time, not a
//     hang.
//   - Abort: a route was torn down and the run ended with a typed error
//     reaching the root cause through channel.CloseError (and, where the
//     session layer did the teardown, a session.ProtocolError naming the
//     failing role).
//
// Anything else — a hang (enforced externally by the test deadline), a
// leaked goroutine (counted by the test), or an error matching no arm —
// fails the soak. The soak itself lives in the package's tests and in
// `make chaos-smoke`; see EXPERIMENTS.md for the recipe.
//
// The harness runs over two substrates: Run drives the in-memory rings, and
// RunNet drives the wire substrate — internal/netchan pipes wrapped in the
// same seed-derived Faulty plans — so the trichotomy is pinned on both sides
// of the transport boundary with one fault-family matrix.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/equiv"
	"repro/internal/netchan"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// Class is one arm of the failure trichotomy.
type Class int

const (
	// Clean: completed or stopped deliberately.
	Clean Class = iota
	// Timeout: typed deadline expiry (session.ErrTimeout reachable).
	Timeout
	// Abort: typed teardown (channel.ErrClosed reachable with a cause).
	Abort
	// Unclassified: an error matching no arm — a soak failure.
	Unclassified
)

func (c Class) String() string {
	switch c {
	case Clean:
		return "clean"
	case Timeout:
		return "timeout"
	case Abort:
		return "abort"
	}
	return "UNCLASSIFIED"
}

// Classify sorts a run outcome into the trichotomy. A nil error is Clean, as
// is a teardown whose root cause is equiv.ErrBudgetCut (the bounded-run cut); a
// timeout must reach session.ErrTimeout; an abort must reach
// channel.ErrClosed and carry a cause — either a session.ProtocolError
// (naming the failing role) or the injected channel.ErrInjected itself.
// A bare cause-less close, or any unrelated error, is Unclassified.
func Classify(err error) Class {
	switch {
	case err == nil:
		return Clean
	case errors.Is(err, equiv.ErrBudgetCut):
		return Clean
	case errors.Is(err, session.ErrTimeout):
		return Timeout
	case errors.Is(err, channel.ErrClosed):
		var pe *session.ProtocolError
		var ce *channel.CloseError
		if errors.As(err, &pe) && pe.Cause != nil {
			return Abort
		}
		if errors.As(err, &ce) {
			return Abort
		}
		return Unclassified
	default:
		return Unclassified
	}
}

// Config sizes a chaos run.
type Config struct {
	// Budget is the per-role action budget (bounds infinite protocols);
	// 0 means 2048.
	Budget int
	// Timeout is the per-run deadline — the bound every non-clean,
	// non-abort run must respect; 0 means 2s.
	Timeout time.Duration
	// Workers is the scheduler-mode pool size; 0 means 2.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 2048
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	return c
}

// Result is one classified run.
type Result struct {
	Protocol string
	Seed     uint64
	Mode     equiv.Mode
	Class    Class
	// Err is the run's error (nil for Clean) — for Abort and Timeout, the
	// typed chain the classification verified.
	Err error
}

func (r Result) String() string {
	return fmt.Sprintf("%s seed=%d %s: %s (%v)", r.Protocol, r.Seed, r.Mode, r.Class, r.Err)
}

// mix64 is the chaos-side seed mixer (splitmix64 finalizer): per-route fault
// plans derive from (run seed, route ordinal) so every route misbehaves
// differently but reproducibly.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// planFor derives route number n's fault plan from the run seed. Seeds are
// striped into four families so every soak exercises every trichotomy arm:
//
//	seed ≡ 0 (mod 4): transparent routes — the control arm, must end Clean.
//	seed ≡ 1 (mod 4): would-block storms on every route — must still end
//	                  Clean: the faults always clear.
//	seed ≡ 2 (mod 4): one route closes early with ErrInjected — the Abort
//	                  arm (or Clean, if the protocol never uses that route).
//	seed ≡ 3 (mod 4): one route stalls permanently — the Timeout arm (or
//	                  Clean if unused; a sibling's teardown may also turn it
//	                  into an Abort first).
func planFor(seed uint64, n int) channel.FaultPlan {
	h := mix64(seed ^ mix64(uint64(n)+1))
	switch seed % 4 {
	case 0:
		return channel.FaultPlan{}
	case 1:
		return channel.FaultPlan{
			Seed:        h,
			WouldBlockP: 150 + int(h%200), // 15–35% spurious refusals
		}
	case 2:
		plan := channel.FaultPlan{Seed: h, WouldBlockP: 100}
		if n == int(mix64(seed)%6) {
			plan.CloseAfter = 1 + int(h%12)
		}
		return plan
	default:
		plan := channel.FaultPlan{Seed: h, WouldBlockP: 100}
		if n == int(mix64(seed)%6) {
			plan.StallAfter = 1 + int(h%12)
		}
		return plan
	}
}

// faultyNetwork returns a network constructor whose routes are Faulty
// wrappers over the default unbounded rings, with per-route plans derived
// from seed.
func faultyNetwork(seed uint64) func(roles ...types.Role) *session.Network {
	return func(roles ...types.Role) *session.Network {
		n := 0
		return session.NewCustomNetwork(func() channel.Substrate {
			plan := planFor(seed, n)
			n++
			return channel.NewFaulty(channel.NewRingQueue(), plan)
		}, roles...)
	}
}

// Run executes one (protocol, seed, mode) cell: base is forked, rewired onto
// seed-derived Faulty routes, executed in the given mode, and classified.
func Run(name string, base *session.Session, seed uint64, mode equiv.Mode, cfg Config) Result {
	cfg = cfg.withDefaults()
	inst := base.Fork().Rewire(faultyNetwork(seed))
	err := execute(inst, mode, cfg)
	return Result{Protocol: name, Seed: seed, Mode: mode, Class: Classify(err), Err: err}
}

// RunNet is Run's wire-substrate column: the same seed-derived fault plans
// wrap netchan pipes instead of rings, so every message additionally
// round-trips through the wire codecs and the send/recv pumps before a
// fault can touch it. After the run every route is hard-torn with Abandon —
// a faulted cell leaves buffered frames behind on purpose, and a graceful
// close there would wedge a writer against a ring nobody reads.
//
// Every mode runs through equiv.Run, as in memory. Under its deadline the
// stepped and scheduled modes park on the pipes' readiness hooks
// (Session.SetNotify; sched.GoExternal in scheduled mode), the bridge the
// fabrics use. An injected would-block refusal has no wire readiness event
// behind it, but it needs none: it is charged once per message, so the
// confirming pass that precedes every park retries it.
func RunNet(e protocols.Entry, base *session.Session, seed uint64, mode equiv.Mode, cfg Config) Result {
	cfg = cfg.withDefaults()
	tab, err := wire.TableFromLocals(e.Name, e.Locals)
	if err != nil {
		return Result{Protocol: e.Name, Seed: seed, Mode: mode, Class: Unclassified, Err: err}
	}
	var routes []*netchan.Route
	inst := base.Fork().Rewire(func(roles ...types.Role) *session.Network {
		n := 0
		return session.NewCustomNetwork(func() channel.Substrate {
			plan := planFor(seed, n)
			n++
			r := netchan.Pipe(tab, netchan.Options{})
			routes = append(routes, r)
			return channel.NewFaulty(r, plan)
		}, roles...)
	})
	err = execute(inst, mode, cfg)
	for _, r := range routes {
		r.Abandon()
	}
	return Result{Protocol: e.Name, Seed: seed, Mode: mode, Class: Classify(err), Err: err}
}

// execute runs an already-rewired instance in the given mode under the
// uniform budget bound and a fresh deadline — the shared back half of Run
// and RunNet. Scheduled mode gets a fresh pool, closed before returning.
func execute(inst *session.Session, mode equiv.Mode, cfg Config) error {
	var s *sched.Scheduler
	if mode == equiv.Scheduled {
		s = sched.New(sched.Options{Workers: cfg.Workers})
		defer s.Close()
	}
	return equiv.Run(inst, mode, equiv.Bound(cfg.Budget), strategyFor, time.Now().Add(cfg.Timeout), s)
}

// strategyFor returns the deterministic per-role driving strategy: cycling
// real choices so branches are covered, nil payloads.
func strategyFor(types.Role) session.Strategy { return &session.RoundRobin{} }
