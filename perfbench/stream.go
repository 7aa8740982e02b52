package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/kmc"
	"repro/internal/netchan"
	"repro/internal/optimise"
	"repro/internal/project"
	"repro/internal/protocols"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// The AMR stream: one Streaming session whose source is AMR-optimised by
// internal/optimise to lookahead 3, run in blocking mode — one goroutine
// per role calling Endpoint.Send/Receive — on two in-process netchan
// fabrics over unix sockets. It is the top rung of the layer ladder: the
// only load on the blocking driver and on the wire's batched path, with
// several frames in flight. One op is one value, timed from the source's
// Send call to the sink's Receive return.

const (
	// streamUnroll is the optimiser's pipelining depth: two unrolls give
	// the source a certified lookahead of 3 values.
	streamUnroll    = 2
	streamLookahead = 3
	// streamWarm is the length of the set-up's warm-up session.
	streamWarm = 512
	// stampSlots holds the send time of every value in flight, far more
	// than the route buffer and the lookahead allow.
	stampSlots = 1024
)

type stream struct {
	base int32 // value i travels as base+i
	g    types.Global

	sess *session.Session
	fabs [2]*netchan.Fabric // s, t
	look int                // certified lookahead
	max  int64              // highest values in flight in the last session
}

func newStream(base int32) *stream {
	return &stream{base: base, g: protocols.Streaming().Global}
}

// setup derives the AMR source, verifies the optimised system (k-MC, then
// the top-down session re-certifies the source against its projection),
// opens the fabrics and runs a short warm-up session over them.
func (s *stream) setup() error {
	src, err := project.Project(s.g, "s")
	if err != nil {
		return err
	}
	res, err := optimise.Optimise("s", src, optimise.Options{MaxUnroll: streamUnroll})
	if err != nil {
		return err
	}
	if res.Best.Lookahead != streamLookahead {
		return fmt.Errorf("optimised source has lookahead %d, want %d", res.Best.Lookahead, streamLookahead)
	}
	s.look = res.Best.Lookahead
	opt, err := fsm.FromLocal("s", res.Best.Type)
	if err != nil {
		return err
	}
	sink, err := project.Project(s.g, "t")
	if err != nil {
		return err
	}
	sys, err := kmc.NewSystem(opt, fsm.MustFromLocal("t", sink))
	if err != nil {
		return err
	}
	if _, kr := kmc.CheckUpTo(sys, streamLookahead+1); !kr.OK {
		return fmt.Errorf("optimised streaming is not k-MC: %v", kr.Violation)
	}
	if s.sess, err = session.TopDown(s.g, map[types.Role]*fsm.FSM{"s": opt}, core.Options{}); err != nil {
		return err
	}
	tab, err := wire.TableFromGlobal("perfbench-stream", s.g)
	if err != nil {
		return err
	}
	if s.fabs, err = listenPair(tab, [2]types.Role{"s", "t"}, netchan.Options{}); err != nil {
		return err
	}
	n, err := s.session(func(n int64) bool { return n < streamWarm }, nil, nil)
	if err == nil && n != streamWarm {
		err = fmt.Errorf("warm-up streamed %d values, want %d", n, streamWarm)
	}
	return err
}

func (s *stream) teardown() { closePair(s.fabs) }

// measure streams values until deadline in one session. A session that
// fails counts as one more failed op.
func (s *stream) measure(deadline time.Time, rec *recorder, tr *tracer) {
	n, err := s.session(func(int64) bool { return time.Now().Before(deadline) }, rec, tr)
	if err != nil {
		rec.done(time.Now(), 0, fmt.Sprintf("session after %d values: %v", n, err))
	}
}

// session runs one Streaming session over the fabrics, the source sending
// values while more(sent) holds, and returns how many values the sink
// received. A value out of order, or a role that does not end in its
// terminal state, fails the session.
func (s *stream) session(more func(sent int64) bool, rec *recorder, tr *tracer) (int64, error) {
	src, err := onFabric(s.sess, s.fabs[0]).Endpoint("s")
	if err != nil {
		return 0, err
	}
	snk, err := onFabric(s.sess, s.fabs[1]).Endpoint("t")
	if err != nil {
		return 0, err
	}
	var stamps [stampSlots]atomic.Int64
	var sent, got atomic.Int64
	s.max = 0
	clock := time.Now()

	source := walker{ep: src, m: s.sess.FSM("s"), tr: tr, op: func() int64 { return sent.Load() }, choose: func(ts []fsm.Transition) int {
		if more(sent.Load()) {
			return pick(ts, "value")
		}
		return pick(ts, "stop")
	}, payload: func(act fsm.Action) any {
		if act.Label != "value" {
			return nil
		}
		i := sent.Add(1)
		if d := i - got.Load(); d > s.max {
			s.max = d
		}
		stamps[i%stampSlots].Store(int64(time.Since(clock)))
		return s.base + int32(i)
	}}
	var fail string
	sink := walker{ep: snk, m: s.sess.FSM("t"), tr: tr, op: func() int64 { return got.Load() + 1 }, received: func(act fsm.Action, v any) {
		if act.Label != "value" {
			return
		}
		now := time.Since(clock)
		i := got.Add(1)
		f := ""
		if x, ok := v.(int32); !ok || x != s.base+int32(i) {
			f = fmt.Sprintf("value %d: got %v, want %d", i, v, s.base+int32(i))
			if fail == "" {
				fail = f
			}
		}
		if rec != nil {
			rec.done(clock.Add(now), now-time.Duration(stamps[i%stampSlots].Load()), f)
		}
	}}
	var wg sync.WaitGroup
	var errs [2]error
	for i, w := range []*walker{&source, &sink} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.run()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[0], errs[1]); err != nil {
		return got.Load(), err
	}
	if fail != "" {
		return got.Load(), errors.New(fail)
	}
	if n := sent.Load(); n != got.Load() {
		return got.Load(), fmt.Errorf("source sent %d values, sink received %d", n, got.Load())
	}
	return got.Load(), nil
}

// pick returns the index of the transition labelled l, or 0.
func pick(ts []fsm.Transition, l types.Label) int {
	for i, t := range ts {
		if t.Act.Label == l {
			return i
		}
	}
	return 0
}

// walker drives one endpoint through its verified machine in blocking
// mode, calling Endpoint.Send and Endpoint.Receive directly.
type walker struct {
	ep *session.Endpoint
	m  *fsm.FSM
	tr *tracer
	op func() int64 // the op id of the next span

	choose   func([]fsm.Transition) int
	payload  func(fsm.Action) any
	received func(fsm.Action, any)
}

// run walks the machine to its terminal state.
func (w *walker) run() error {
	cur := w.m.Initial()
	for {
		ts := w.m.Transitions(cur)
		if len(ts) == 0 {
			if !w.ep.Monitor().Terminal() {
				return fmt.Errorf("%s ended outside its terminal state", w.ep.Role())
			}
			return nil
		}
		if ts[0].Act.Dir == fsm.Send {
			t := ts[0]
			if w.choose != nil {
				t = ts[w.choose(ts)]
			}
			var v any
			if w.payload != nil {
				v = w.payload(t.Act)
			}
			start := w.start()
			if err := w.ep.Send(t.Act.Peer, t.Act.Label, v); err != nil {
				return err
			}
			w.span("session.send", start)
			cur = t.To
			continue
		}
		start := w.start()
		label, v, err := w.ep.Receive(ts[0].Act.Peer)
		if err != nil {
			return err
		}
		w.span("session.recv", start)
		t := ts[pick(ts, label)]
		if w.received != nil {
			w.received(t.Act, v)
		}
		cur = t.To
	}
}

func (w *walker) start() int64 {
	if w.tr == nil {
		return 0
	}
	return w.tr.now()
}

func (w *walker) span(name string, start int64) {
	if w.tr != nil {
		w.tr.add(span{name: name, op: w.op(), start: start, end: w.tr.now()}, 0)
	}
}

func (s *stream) layers(tr *tracer, put func(string, float64)) {
	put("session.send_us", tr.meanSelfUs("session.send"))
	put("session.recv_us", tr.meanSelfUs("session.recv"))
	put("amr.inflight_max", float64(s.max))
	put("amr.lookahead", float64(s.look))
}
