package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/netchan"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// The layer ladder times one message through each layer alone, one rung
// at a time, on the workload's own protocol and payloads: ring →
// monitored endpoint → stepper → scheduler → wire codec → in-memory pipe
// → unix socket fabric. Every rung reports ns per message. The top rung
// streams over the socket fabrics with an AMR source for amrRungTime and
// reports where the blocking driver's time goes.

const (
	rungMsgs    = 100000 // messages per in-process rung
	rungNetMsgs = 10000  // messages per socket or pipe rung
	amrRungTime = 2 * time.Second
)

// ladderSpec is a two-role protocol, the label of its payload message and
// the payloads to send, cycled.
type ladderSpec struct {
	g      types.Global
	label  types.Label
	values []int32
}

// ladderValues is how many payloads a ladder cycles.
const ladderValues = 4096

// streamingLadder is the ladder over the Streaming protocol's value
// messages, carrying the values first, first+1, ...
func streamingLadder(first int32) ladderSpec {
	vs := make([]int32, ladderValues)
	for i := range vs {
		vs[i] = first + int32(i)
	}
	return ladderSpec{g: protocols.Streaming().Global, label: "value", values: vs}
}

func runLadder(l ladderSpec, put func(string, float64)) error {
	sess, err := session.TopDown(l.g, nil, core.Options{})
	if err != nil {
		return err
	}
	tab, err := wire.TableFromGlobal("perfbench-ladder", l.g)
	if err != nil {
		return err
	}
	msgs := make([]channel.Message, len(l.values))
	for i, v := range l.values {
		msgs[i] = channel.Message{Label: l.label, Value: v}
	}
	msg := func(i int) channel.Message { return msgs[i%len(msgs)] }

	ring := channel.NewRing(64)
	ns, err := perMsg(rungMsgs, func(i int) error {
		if err := ring.Send(msg(i)); err != nil {
			return err
		}
		_, err := ring.Recv()
		return err
	})
	if err != nil {
		return fmt.Errorf("ring: %w", err)
	}
	put("channel.ring_ns", ns)

	if ns, err = monitorRung(sess, l, msgs); err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	put("session.monitor_ns", ns)
	if ns, err = stepRung(sess, l, msgs); err != nil {
		return fmt.Errorf("step: %w", err)
	}
	put("session.step_ns", ns)
	if ns, err = schedRung(sess, l, msgs); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	put("sched.visit_ns", ns)

	frames := make([][]byte, len(msgs))
	for i, m := range msgs {
		if frames[i], err = tab.AppendData(nil, m.Label, m.Value); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 64)
	if ns, err = perMsg(rungMsgs, func(i int) error {
		m := msg(i)
		buf, err = tab.AppendData(buf[:0], m.Label, m.Value)
		return err
	}); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	put("wire.encode_ns", ns)
	if ns, err = perMsg(rungMsgs, func(i int) error {
		f, _, err := tab.Parse(frames[i%len(frames)])
		if err == nil && f.Value != msg(i).Value {
			err = fmt.Errorf("decoded %v, want %v", f.Value, msg(i).Value)
		}
		return err
	}); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	put("wire.decode_ns", ns)

	pipe := netchan.Pipe(tab, netchan.Options{})
	ns, err = sendRecv(pipe, pipe, msg)
	pipe.Abandon()
	if err != nil {
		return fmt.Errorf("pipe: %w", err)
	}
	put("netchan.pipe_ns", ns)

	roles := [2]types.Role{"p", "q"}
	fabs, err := listenPair(tab, roles, netchan.Options{})
	if err != nil {
		return err
	}
	defer closePair(fabs)
	// Row-major route ordinals over (p, q): the first route each fabric
	// makes is p→q, so p gets its send half and q its receive half.
	send := fabs[0].RouteMaker(roles[:])()
	recv := fabs[1].RouteMaker(roles[:])()
	if ns, err = sendRecv(send, recv, msg); err != nil {
		return fmt.Errorf("unix: %w", err)
	}
	put("netchan.unix_ns", ns)
	return amrRung(l.values[0], put)
}

// amrRung streams the values first+1, first+2, ... in one AMR Streaming
// session over unix socket fabrics, with every Send and Receive a span.
func amrRung(first int32, put func(string, float64)) error {
	s := newStream(first)
	if err := s.setup(); err != nil {
		return err
	}
	defer s.teardown()
	tr := newTracer()
	rec := newRecorder(time.Now(), amrRungTime)
	s.measure(rec.deadline, rec, tr)
	if rec.failed > 0 {
		return fmt.Errorf("amr stream: %d of %d values failed; first: %s", rec.failed, rec.ops, rec.firstFail)
	}
	s.layers(tr, put)
	return nil
}

// perMsg runs f over a tenth of n messages to warm up, then times n.
func perMsg(n int, f func(i int) error) (float64, error) {
	for i := 0; i < n/10; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// sendRecv times one message at a time through a substrate: a send, then
// the receive that waits for it.
func sendRecv(s channel.Sender, r channel.Receiver, msg func(int) channel.Message) (float64, error) {
	return perMsg(rungNetMsgs, func(i int) error {
		if err := s.Send(msg(i)); err != nil {
			return err
		}
		m, err := r.Recv()
		if err == nil && m.Value != msg(i).Value {
			err = fmt.Errorf("received %v, want %v", m.Value, msg(i).Value)
		}
		return err
	})
}

// payload is the value an action carries: the next message's payload for
// a payload sort, nil for a signal.
func payload(act fsm.Action, msgs []channel.Message, i int) any {
	if act.Sort == types.Unit || act.Sort == "" {
		return nil
	}
	return msgs[i%len(msgs)].Value
}

// monitorRung drives both roles' monitored endpoints on the default ring
// network from one goroutine: a role sends when its machine says so and
// receives only what its peer already sent.
func monitorRung(base *session.Session, l ladderSpec, msgs []channel.Message) (float64, error) {
	inst := base.Fork()
	roles := inst.Roles()
	var eps [2]*session.Endpoint
	var ms [2]*fsm.FSM
	var cur [2]fsm.State
	for i, r := range roles {
		ep, err := inst.Endpoint(r)
		if err != nil {
			return 0, err
		}
		eps[i], ms[i], cur[i] = ep, inst.FSM(r), inst.FSM(r).Initial()
	}
	var queued [2]int // messages waiting for role i
	sent := 0
	return perMsg(rungMsgs, func(int) error {
		for want := sent + 1; sent < want; {
			progressed := false
			for i := range eps {
				ts := ms[i].Transitions(cur[i])
				switch {
				case len(ts) == 0:
					return errors.New("protocol ended")
				case ts[0].Act.Dir == fsm.Send:
					t := ts[pick(ts, l.label)]
					if err := eps[i].Send(t.Act.Peer, t.Act.Label, payload(t.Act, msgs, sent)); err != nil {
						return err
					}
					cur[i] = t.To
					queued[1-i]++
					sent++
				case queued[i] > 0:
					label, _, err := eps[i].Receive(ts[0].Act.Peer)
					if err != nil {
						return err
					}
					cur[i] = ts[pick(ts, label)].To
					queued[i]--
				default:
					continue
				}
				progressed = true
			}
			if !progressed {
				return errors.New("both roles blocked")
			}
		}
		return nil
	})
}

// ladderStrategy keeps the protocol on its payload message.
type ladderStrategy struct {
	l    ladderSpec
	msgs []channel.Message
	n    int
}

func (s *ladderStrategy) Choose(_ fsm.State, ts []fsm.Transition) int { return pick(ts, s.l.label) }
func (s *ladderStrategy) Payload(act fsm.Action) any {
	s.n++
	return payload(act, s.msgs, s.n)
}
func (s *ladderStrategy) Received(fsm.Action, any) {}

// stepRung steps both roles' session.Steppers alternately from one
// goroutine; a message is two actions, its send and its receive.
func stepRung(base *session.Session, l ladderSpec, msgs []channel.Message) (float64, error) {
	inst := base.Fork()
	var sts []*session.Stepper
	for _, r := range inst.Roles() {
		ep, err := inst.Endpoint(r)
		if err != nil {
			return 0, err
		}
		st, err := session.NewStepper(ep, inst.FSM(r), &ladderStrategy{l: l, msgs: msgs}, 1<<62)
		if err != nil {
			return 0, err
		}
		sts = append(sts, st)
	}
	actions := 0
	return perMsg(rungMsgs, func(int) error {
		for want := actions + 2; actions < want; {
			progressed := false
			for _, st := range sts {
				done, err := st.Step()
				switch {
				case errors.Is(err, session.ErrWouldBlock):
					continue
				case done || err != nil:
					return fmt.Errorf("stepper stopped: %v", err)
				}
				actions++
				progressed = true
			}
			if !progressed {
				return errors.New("both roles blocked")
			}
		}
		return nil
	})
}

// schedRung runs one session of rungMsgs messages (rungMsgs actions per
// role, half of them sends) through a two-worker scheduler and divides its
// run time by the messages.
func schedRung(base *session.Session, l ladderSpec, msgs []channel.Message) (float64, error) {
	s := sched.New(sched.Options{Workers: 2})
	strat := func(types.Role) session.Strategy { return &ladderStrategy{l: l, msgs: msgs} }
	start := time.Now()
	err := s.GoSession(base.Fork(), rungMsgs, strat)
	if err == nil {
		err = s.Wait()
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / rungMsgs, errors.Join(err, s.Close())
}
