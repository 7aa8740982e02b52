package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/kmc"
	"repro/internal/netchan"
	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// pingpong-unix: the a->b:ping(i32).b->a:pong(i32) loop over unix
// sockets, driven the way cmd/sessnet drives a role: sched.GoExternal,
// woken by the fabric's delivery hook. One op is one round trip with one
// frame in flight, timed from a's ping Payload to a's pong Received.

const (
	pingGlobal = "mu t.a->b:ping(i32).b->a:pong(i32).t"
	// pings is how many ping payloads the seed draws; rounds cycle them.
	pings = 4096
	// pingWarm is the length of the set-up's warm-up session.
	pingWarm = 256
	// pingGrace bounds how long a session may outlive its measured time
	// before the scheduler fails it with a timeout instead of hanging.
	pingGrace = 30 * time.Second
)

type pingPong struct {
	values []int32
	dig    string
	g      types.Global

	sess *session.Session
	fabs [2]*netchan.Fabric // a, b
	s    *sched.Scheduler
}

func newPingPong(seed uint64) workload {
	r := newRNG(seed)
	p := &pingPong{g: types.MustParseGlobal(pingGlobal)}
	d := newDigest()
	for i := 0; i < pings; i++ {
		v := int32(r.intn(1<<31)) - 1<<30
		p.values = append(p.values, v)
		d.add(v)
	}
	p.dig = d.sum()
	return p
}

func (p *pingPong) digest() string { return p.dig }

// setup verifies the protocol (k-MC, then the top-down session), builds
// its wire table, opens the fabrics, starts the scheduler and runs a short
// warm-up session.
func (p *pingPong) setup() error {
	ms, err := project.ProjectFSMs(p.g)
	if err != nil {
		return err
	}
	sys, err := kmc.NewSystem(protocols.Machines(ms)...)
	if err != nil {
		return err
	}
	if _, res := kmc.CheckUpTo(sys, 1); !res.OK {
		return fmt.Errorf("ping-pong is not 1-MC: %v", res.Violation)
	}
	if p.sess, err = session.TopDown(p.g, nil, core.Options{}); err != nil {
		return err
	}
	tab, err := wire.TableFromGlobal("perfbench-pingpong", p.g)
	if err != nil {
		return err
	}
	if p.fabs, err = listenPair(tab, [2]types.Role{"a", "b"}, netchan.Options{}); err != nil {
		return err
	}
	p.s = sched.New(sched.Options{Workers: 2})
	n := 0
	_, err = p.session(func() bool { n++; return n <= pingWarm }, time.Now(), nil, nil)
	return err
}

// teardown stops the scheduler and closes the fabrics. A session that
// failed was already counted as a failed op, so the scheduler's record of
// it is not an error here.
func (p *pingPong) teardown() {
	_ = p.s.Close()
	closePair(p.fabs)
}

func (p *pingPong) measure(deadline time.Time, rec *recorder, tr *tracer) error {
	rounds, err := p.session(func() bool { return time.Now().Before(deadline) }, deadline, rec, tr)
	if err != nil {
		rec.done(time.Now(), 0, fmt.Sprintf("session after %d rounds: %v", rounds, err))
	}
	return nil
}

// session runs one ping-pong session, a starting a new round while more()
// holds, and returns the rounds completed. The session fails if it runs
// pingGrace past end.
func (p *pingPong) session(more func() bool, end time.Time, rec *recorder, tr *tracer) (int64, error) {
	var sentAt atomic.Int64 // tracer clock at a's latest ping, for wire.oneway
	a := &pinger{p: p, rec: rec, tr: tr, more: more, sentAt: &sentAt, going: more()}
	b := &ponger{tr: tr, sentAt: &sentAt}
	var stepA, stepB *session.Stepper
	for _, r := range []struct {
		role  types.Role
		fab   *netchan.Fabric
		strat session.Strategy
		st    **session.Stepper
	}{{"a", p.fabs[0], a, &stepA}, {"b", p.fabs[1], b, &stepB}} {
		ep, err := onFabric(p.sess, r.fab).Endpoint(r.role)
		if err != nil {
			return 0, err
		}
		if *r.st, err = session.NewStepper(ep, p.sess.FSM(r.role), r.strat, 1<<62); err != nil {
			return 0, err
		}
	}
	// b stops once it has answered every ping a sent; a stops at a round
	// boundary once more() fails, then wakes b to notice.
	var rounds atomic.Int64
	rounds.Store(-1)
	bStop := &stopper{st: stepB, stop: func(s *session.Stepper) bool { return int64(s.Steps()) == 2*rounds.Load() }}
	done := make(chan error, 2)
	onDone := func(err error) { done <- err }
	deadline := end.Add(pingGrace)
	wb, err := p.s.GoExternal(deadline, onDone, bStop)
	if err != nil {
		return 0, err
	}
	p.fabs[1].SetNotify(wb.Wake)
	wb.Wake()
	aStop := &stopper{st: stepA, stop: func(s *session.Stepper) bool {
		if s.Steps()%2 != 0 || a.going {
			return false
		}
		rounds.Store(int64(s.Steps() / 2))
		wb.Wake()
		return true
	}}
	wa, err := p.s.GoExternal(deadline, onDone, aStop)
	if err != nil {
		stepA.Abort()
		rounds.Store(0)
		wb.Wake()
		return 0, errors.Join(err, <-done)
	}
	p.fabs[0].SetNotify(wa.Wake)
	wa.Wake()
	err = errors.Join(<-done, <-done)
	if err == nil && a.fail != "" {
		err = errors.New(a.fail)
	}
	return a.rounds, err
}

// stopper ends a stepper's run, at a point stop picks, with the
// deliberate-stop outcome the scheduler treats as success.
type stopper struct {
	st   *session.Stepper
	stop func(*session.Stepper) bool
}

func (s *stopper) Step() (bool, error) {
	if s.stop(s.st) {
		s.st.Abort()
		return true, session.ErrStopped
	}
	return s.st.Step()
}

func (s *stopper) Abort() { s.st.Abort() }

// pinger is a's strategy: it sends the seed's values and checks each
// pong against its ping.
type pinger struct {
	p      *pingPong
	rec    *recorder
	tr     *tracer
	more   func() bool
	sentAt *atomic.Int64

	going  bool // a round is in flight, or may start
	ping   int32
	start  time.Time
	rounds int64
	fail   string
}

func (a *pinger) Choose(fsm.State, []fsm.Transition) int { return 0 }

func (a *pinger) Payload(fsm.Action) any {
	a.ping = a.p.values[a.rounds%pings]
	a.start = time.Now()
	if a.tr != nil {
		a.sentAt.Store(int64(a.start.Sub(a.tr.epoch)))
	}
	return a.ping
}

func (a *pinger) Received(_ fsm.Action, v any) {
	now := time.Now()
	a.rounds++
	f := ""
	if x, ok := v.(int32); !ok || x != a.ping+1 {
		f = fmt.Sprintf("round %d: pong %v for ping %d", a.rounds, v, a.ping)
		if a.fail == "" {
			a.fail = f
		}
	}
	if a.rec != nil {
		a.rec.done(now, now.Sub(a.start), f)
	}
	a.going = a.more()
}

// ponger is b's strategy: it answers each ping with ping+1.
type ponger struct {
	tr     *tracer
	sentAt *atomic.Int64
	ping   int32
	round  int64 // pings received: the op id of its spans
	gotAt  int64
}

func (b *ponger) Choose(fsm.State, []fsm.Transition) int { return 0 }

func (b *ponger) Received(_ fsm.Action, v any) {
	b.ping, _ = v.(int32)
	b.round++
	if b.tr != nil {
		b.gotAt = b.tr.now()
		b.tr.add(span{name: "wire.oneway", op: b.round, start: b.sentAt.Load(), end: b.gotAt}, 0)
	}
}

func (b *ponger) Payload(fsm.Action) any {
	if b.tr != nil {
		b.tr.add(span{name: "session.turnaround", op: b.round, start: b.gotAt, end: b.tr.now()}, 0)
	}
	return b.ping + 1
}

func (p *pingPong) layers(tr *tracer, put func(string, float64)) {
	put("wire.oneway_us", tr.meanSelfUs("wire.oneway"))
	put("session.turnaround_us", tr.meanSelfUs("session.turnaround"))
}

func (p *pingPong) ladder() ladderSpec {
	return ladderSpec{g: p.g, label: "ping", values: p.values}
}
