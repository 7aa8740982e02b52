// Command manysessions demonstrates the multi-session scheduler: it
// verifies the streaming protocol once, forks ten thousand session
// instances, and multiplexes all of them over a fixed pool of worker
// goroutines with non-blocking stepping (internal/sched) — the
// production-scale execution shape, as opposed to the paper evaluation's
// one-session-per-goroutine-pair runs. GoSession is admission-controlled:
// once a worker has Options.Backlog sessions in flight the enqueue loop
// blocks until one finishes, so memory stays bounded at any -sessions.
//
//	go run ./examples/manysessions [-sessions n] [-workers w] [-values k]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
)

// source streams `values` values then stops; the sink (FirstBranch) keeps
// asking until it hears the stop.
type source struct {
	values int
	sent   int
}

func (s *source) Choose(_ fsm.State, options []fsm.Transition) int {
	want := types.Label("stop")
	if s.sent < s.values {
		want = "value"
	}
	for i, t := range options {
		if t.Act.Label == want {
			return i
		}
	}
	return 0
}

func (s *source) Payload(act fsm.Action) any {
	if act.Label == "value" {
		s.sent++
		return int32(s.sent)
	}
	return nil
}

func (s *source) Received(fsm.Action, any) {}

func main() {
	sessions := flag.Int("sessions", 10000, "concurrent session instances")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "scheduler worker goroutines")
	values := flag.Int("values", 8, "values streamed per session")
	flag.Parse()

	// Verify once: the top-down workflow projects and checks the global
	// type. Every instance below reuses this verification via Fork.
	g := types.MustParseGlobal("mu x.t->s:ready.s->t:{value(i32).x, stop.end}")
	base, err := session.TopDown(g, nil, core.Options{})
	if err != nil {
		log.Fatalf("verification: %v", err)
	}

	budget := 4*(*values) + 8
	s := sched.New(sched.Options{Workers: *workers})
	start := time.Now()
	for i := 0; i < *sessions; i++ {
		inst := base.Fork()
		err := s.GoSession(inst, budget, func(r types.Role) session.Strategy {
			if r == "s" {
				return &source{values: *values}
			}
			return session.FirstBranch{}
		})
		if err != nil {
			log.Fatalf("session %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		log.Fatalf("scheduler: %v", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("ran %d verified streaming sessions (%d values each) over %d workers\n",
		*sessions, *values, *workers)
	// Per session: each streamed value is a ready+value exchange, plus the
	// final ready+stop — 2·values+2 messages.
	fmt.Printf("total %.3fs — %.0f sessions/sec, %.0f msgs/sec\n",
		elapsed.Seconds(),
		float64(*sessions)/elapsed.Seconds(),
		float64(*sessions)*float64(2*(*values)+2)/elapsed.Seconds())
	fmt.Printf("goroutines at exit: %d (the classic shape would have parked %d)\n",
		runtime.NumGoroutine(), 2**sessions)
}
