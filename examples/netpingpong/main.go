// Ping-pong over real sockets. A two-role session — a sends ping(i32), b
// answers pong(i32), forever — is verified once, then executed three ways:
// on the in-memory ring substrate, over a Unix socket pair, and over
// loopback TCP. Each socket side runs its own netchan.Fabric and is driven
// by the scheduler's external-readiness mode (sched.GoExternal), woken by
// the fabric's delivery notifications exactly as cmd/sessnet's per-process
// children are — this example is the same architecture folded into one
// process, so the three substrates can be timed side by side.
//
// The observable behaviour is identical on all three substrates (that is
// the point of the substrate abstraction: verification does not care where
// the bytes go); what changes is the cost of a round trip.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/netchan"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

const rounds = 20000 // ping/pong exchanges per substrate

// pingStrategy stamps each send with a running counter, so the payload
// exercises the i32 wire codec end to end (ping-pong has no choices).
type pingStrategy struct{ n int32 }

func (s *pingStrategy) Choose(fsm.State, []fsm.Transition) int { return 0 }
func (s *pingStrategy) Payload(fsm.Action) any                 { s.n++; return s.n }
func (s *pingStrategy) Received(fsm.Action, any)               {}

func main() {
	log.SetFlags(0)

	g := types.MustParseGlobal("mu t.a->b:ping(i32).b->a:pong(i32).t")
	sess, err := session.TopDown(g, nil, core.Options{})
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	tab, err := wire.TableFromGlobal("netpingpong", g)
	if err != nil {
		log.Fatalf("wire table: %v", err)
	}
	fmt.Println("verified: mu t.a->b:ping(i32).b->a:pong(i32).t")

	ring := runRing(sess)
	fmt.Printf("%-6s %9.1f round-trips/ms\n", "ring", float64(rounds)/(ring.Seconds()*1e3))

	dir, err := os.MkdirTemp("", "netpingpong-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	unix := runSockets(sess, tab, "unix",
		filepath.Join(dir, "a.sock"), filepath.Join(dir, "b.sock"))
	fmt.Printf("%-6s %9.1f round-trips/ms (%.1fx slower than ring)\n", "unix",
		float64(rounds)/(unix.Seconds()*1e3), unix.Seconds()/ring.Seconds())
	tcp := runSockets(sess, tab, "tcp", "127.0.0.1:0", "127.0.0.1:0")
	fmt.Printf("%-6s %9.1f round-trips/ms (%.1fx slower than ring)\n", "tcp",
		float64(rounds)/(tcp.Seconds()*1e3), tcp.Seconds()/ring.Seconds())
}

// runRing drives both roles of one session instance on the default
// in-memory ring network, under the same scheduler that drives the socket
// runs — the baseline every socket number is compared against.
func runRing(base *session.Session) time.Duration {
	inst := base.Fork()
	s := sched.New(sched.Options{Workers: 2})
	start := time.Now()
	var steppers []sched.Stepper
	for _, r := range inst.Roles() {
		steppers = append(steppers, newStepper(inst, r))
	}
	if err := s.Go(time.Time{}, nil, steppers...); err != nil {
		log.Fatalf("ring: %v", err)
	}
	if err := s.Close(); err != nil {
		log.Fatalf("ring: %v", err)
	}
	return time.Since(start)
}

// runSockets runs one fabric per role inside this process — the same
// one-fabric-per-OS-process shape as cmd/sessnet, so each role only ever
// touches its own half of each route.
func runSockets(base *session.Session, tab *wire.Table, network, addrA, addrB string) time.Duration {
	fabA := netchan.NewFabric("a", tab, netchan.Options{})
	fabB := netchan.NewFabric("b", tab, netchan.Options{})
	defer fabA.Close()
	defer fabB.Close()
	boundA, err := fabA.Listen(network, addrA)
	if err != nil {
		log.Fatal(err)
	}
	boundB, err := fabB.Listen(network, addrB)
	if err != nil {
		log.Fatal(err)
	}
	fabA.SetPeer("b", boundB)
	fabB.SetPeer("a", boundA)

	s := sched.New(sched.Options{Workers: 2})
	defer s.Close()
	start := time.Now()
	deadline := start.Add(time.Minute)
	done := make(chan error, 2)
	for _, side := range []struct {
		role types.Role
		fab  *netchan.Fabric
	}{{"a", fabA}, {"b", fabB}} {
		inst := base.Fork()
		inst.Rewire(func(roles ...types.Role) *session.Network {
			return session.NewCustomNetwork(side.fab.RouteMaker(roles), roles...)
		})
		wk, err := s.GoExternal(deadline, func(err error) { done <- err }, newStepper(inst, side.role))
		if err != nil {
			log.Fatalf("%s %s: %v", network, side.role, err)
		}
		side.fab.SetNotify(wk.Wake)
		wk.Wake() // cover deliveries that landed before the hook installed
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			log.Fatalf("%s: %v", network, err)
		}
	}
	return time.Since(start)
}

// newStepper builds a budget-capped stepper for one role: rounds exchanges
// = 2 actions per role.
func newStepper(inst *session.Session, role types.Role) *session.Stepper {
	ep, err := inst.Endpoint(role)
	if err != nil {
		log.Fatalf("%s: %v", role, err)
	}
	st, err := session.NewStepper(ep, inst.FSM(role), &pingStrategy{}, 2*rounds)
	if err != nil {
		log.Fatalf("%s: NewStepper: %v", role, err)
	}
	return st
}
