package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/kmc"
	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
)

// mux-inproc: many short sessions of the registry Streaming protocol on
// its plain projections, multiplexed over sched.GoSessionPooled with two
// workers on in-memory ring substrates. Each session streams a seed-drawn
// number of values, then stops. One op is one session, from submit to
// onDone.

const (
	muxWorkers = 2
	// muxBacklog is each worker's admission cap: 2×32 sessions are in
	// flight, and GoSessionPooled blocks the submitter when a worker is
	// full, which closes the loop.
	muxBacklog = 32
	// muxLanes are the per-session records in rotation; more than the
	// in-flight cap, so a lane is free whenever admission is.
	muxLanes = muxWorkers*muxBacklog + 16
	// muxSpecs is how many session specs the seed draws; ops cycle them.
	muxSpecs = 4096
	// muxMaxValues bounds the values one session streams.
	muxMaxValues = 16
	// muxWarm is how many sessions the set-up runs to warm the pool.
	muxWarm = 2048
)

// muxSpec is one session's input: the source streams n values first,
// first+1, ..., first+n-1.
type muxSpec struct {
	n     int
	first int32
}

// wantSum is the closed-form sum the sink must see.
func (s muxSpec) wantSum() int64 {
	n := int64(s.n)
	return n*int64(s.first) + n*(n-1)/2
}

type mux struct {
	specs []muxSpec
	dig   string
	g     types.Global

	base  *session.Session
	s     *sched.Scheduler
	lanes []*lane
	free  chan *lane
	next  int // next spec
	op    int64

	// pending is the lane being submitted. GoSessionPooled creates or
	// rewinds the session's strategies on the submitting goroutine, and
	// they bind to it there.
	pending *lane
	// rec and tr belong to the current measurement; nil while warming.
	rec *recorder
	tr  *tracer
}

// lane is the record of one in-flight session.
type lane struct {
	m      *mux
	spec   muxSpec
	op     int64
	root   int64 // span id of the op when traced
	submit time.Time
	sum    int64 // the sink's running sum
	onDone func(error)
}

func newMux(seed uint64) workload {
	r := newRNG(seed)
	m := &mux{g: protocols.Streaming().Global}
	d := newDigest()
	for i := 0; i < muxSpecs; i++ {
		s := muxSpec{n: 1 + r.intn(muxMaxValues), first: int32(r.intn(1<<20)) - 1<<19}
		m.specs = append(m.specs, s)
		d.add(s.n, s.first)
	}
	m.dig = d.sum()
	return m
}

func (m *mux) digest() string { return m.dig }

// setup verifies Streaming (k-MC of its projections, then the top-down
// session), starts the scheduler and warms its pool with muxWarm sessions.
func (m *mux) setup() error {
	ms, err := project.ProjectFSMs(m.g)
	if err != nil {
		return err
	}
	sys, err := kmc.NewSystem(protocols.Machines(ms)...)
	if err != nil {
		return err
	}
	if _, res := kmc.CheckUpTo(sys, protocols.Streaming().KmcBound); !res.OK {
		return fmt.Errorf("streaming is not k-MC: %v", res.Violation)
	}
	if m.base, err = session.TopDown(m.g, nil, core.Options{}); err != nil {
		return err
	}
	m.s = sched.New(sched.Options{Workers: muxWorkers, Backlog: muxBacklog})
	m.free = make(chan *lane, muxLanes)
	m.lanes = m.lanes[:0]
	for i := 0; i < muxLanes; i++ {
		l := &lane{m: m}
		l.onDone = l.finish
		m.lanes = append(m.lanes, l)
		m.free <- l
	}
	m.rec, m.tr, m.next = nil, nil, 0
	for i := 0; i < muxWarm; i++ {
		if err := m.submit(); err != nil {
			return err
		}
	}
	m.drain()
	return nil
}

// teardown stops the scheduler. A session that failed was already counted
// as a failed op, so the scheduler's record of it is not an error here.
func (m *mux) teardown() { _ = m.s.Close() }

func (m *mux) measure(deadline time.Time, rec *recorder, tr *tracer) error {
	m.rec, m.tr = rec, tr
	steals := m.s.Steals()
	for time.Now().Before(deadline) {
		if err := m.submit(); err != nil {
			return err
		}
	}
	m.drain()
	if tr != nil {
		tr.count("sched.steals", float64(m.s.Steals()-steals))
	}
	return nil
}

// submit starts the next session on a free lane.
func (m *mux) submit() error {
	l := <-m.free
	l.spec = m.specs[m.next]
	m.next = (m.next + 1) % len(m.specs)
	m.op++
	l.op, l.sum = m.op, 0
	m.pending = l
	l.submit = time.Now()
	var admit span
	if m.tr != nil {
		l.root = m.tr.newID()
		admit = span{name: "sched.admit", op: l.op, parent: l.root, start: m.tr.now()}
	}
	if err := m.s.GoSessionPooled(m.base, 4*muxMaxValues, m.strategy, time.Time{}, l.onDone); err != nil {
		return err
	}
	if m.tr != nil {
		admit.end = m.tr.now()
		m.tr.add(admit, 0)
	}
	return nil
}

// drain waits until every lane is back, then returns them all. A failed
// session is counted by its lane, not here.
func (m *mux) drain() {
	for i := 0; i < muxLanes; i++ {
		<-m.free
	}
	for _, l := range m.lanes {
		m.free <- l
	}
}

// finish is a lane's onDone: it checks the sink's sum against the closed
// form and frees the lane. It runs on a scheduler worker.
func (l *lane) finish(err error) {
	m := l.m
	if m.rec != nil {
		now := time.Now()
		fail := ""
		if err != nil {
			fail = err.Error()
		} else if want := l.spec.wantSum(); l.sum != want {
			fail = fmt.Sprintf("session %d: sink summed %d, want %d", l.op, l.sum, want)
		}
		m.rec.done(now, now.Sub(l.submit), fail)
		if m.tr != nil {
			m.tr.add(span{name: "op", op: l.op, id: l.root, start: int64(l.submit.Sub(m.tr.epoch)), end: m.tr.now()}, 0)
		}
	}
	m.free <- l
}

// strategy makes a role's strategy on a pool miss; it binds to the lane
// being submitted, as ResetStrategy does on a hit.
func (m *mux) strategy(r types.Role) session.Strategy {
	if r == "s" {
		return &muxSource{m: m, l: m.pending}
	}
	return &muxSink{m: m, l: m.pending}
}

// gap records the time since the role's previous action as a
// session.action_gap span; last is the role's previous action time.
func (m *mux) gap(l *lane, last *int64) {
	if m.tr == nil {
		return
	}
	now := m.tr.now()
	if *last != 0 {
		m.tr.add(span{name: "session.action_gap", op: l.op, parent: l.root, start: *last, end: now}, 0)
	}
	*last = now
}

// muxSource streams its lane's values, then stops.
type muxSource struct {
	m    *mux
	l    *lane
	sent int
	last int64
}

func (s *muxSource) ResetStrategy() { s.l, s.sent, s.last = s.m.pending, 0, 0 }

func (s *muxSource) Choose(_ fsm.State, ts []fsm.Transition) int {
	want := types.Label("value")
	if s.sent == s.l.spec.n {
		want = "stop"
	}
	for i, t := range ts {
		if t.Act.Label == want {
			return i
		}
	}
	return 0
}

func (s *muxSource) Payload(act fsm.Action) any {
	s.m.gap(s.l, &s.last)
	if act.Label != "value" {
		return nil
	}
	v := s.l.spec.first + int32(s.sent)
	s.sent++
	return v
}

func (s *muxSource) Received(fsm.Action, any) { s.m.gap(s.l, &s.last) }

// muxSink asks for values and sums them into its lane.
type muxSink struct {
	m    *mux
	l    *lane
	last int64
}

func (s *muxSink) ResetStrategy() { s.l, s.last = s.m.pending, 0 }

func (s *muxSink) Choose(fsm.State, []fsm.Transition) int { return 0 }

func (s *muxSink) Payload(fsm.Action) any {
	s.m.gap(s.l, &s.last)
	return nil
}

func (s *muxSink) Received(act fsm.Action, v any) {
	s.m.gap(s.l, &s.last)
	if x, ok := v.(int32); ok && act.Label == "value" {
		s.l.sum += int64(x)
	}
}

func (m *mux) layers(tr *tracer, put func(string, float64)) {
	put("sched.admit_us", tr.meanSelfUs("sched.admit"))
	put("sched.steals_per_ks", 1e3*tr.counter("sched.steals")/float64(max(tr.spanCount("op"), 1)))
	put("session.action_gap_us", tr.meanSelfUs("session.action_gap"))
}

func (m *mux) ladder() ladderSpec { return streamingLadder(m.specs[0].first) }
