package bench

// Cross-checks for the generated state-pattern APIs (examples/gen): each
// Fig. 6 protocol is executed end to end through the sessgen-generated,
// monitor-free API and through the fully monitored Session runtime driving
// the same verified machines, and the observable results (value sequences,
// branch-label sequences, completed turns) must agree. This is the tier-1
// evidence that dropping the monitor loses no behaviour — only its cost.

import (
	"fmt"
	"testing"

	genelev "repro/examples/gen/elevator"
	genring "repro/examples/gen/ring"
	genstreaming "repro/examples/gen/streaming"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/fsm"
	"repro/internal/protocols"
	"repro/internal/session"
	"repro/internal/types"
)

// genStreamingValues runs the generated streaming protocol and returns the
// exact value sequence the sink observed.
func genStreamingValues(n int) ([]int32, error) {
	net := genstreaming.NewNetwork()
	var got []int32
	err := genstreaming.Run(net, genstreaming.Procs{
		S: func(s genstreaming.S0) (genstreaming.SEnd, error) {
			s1, err := s.SendValue(0)
			if err != nil {
				return genstreaming.SEnd{}, err
			}
			loop, err := s1.SendValue(1)
			if err != nil {
				return genstreaming.SEnd{}, err
			}
			for i := 2; i < n; i++ {
				s4, err := loop.SendValue(int32(i))
				if err != nil {
					return genstreaming.SEnd{}, err
				}
				if loop, err = s4.RecvReady(); err != nil {
					return genstreaming.SEnd{}, err
				}
			}
			s5, err := loop.SendStop()
			if err != nil {
				return genstreaming.SEnd{}, err
			}
			s6, err := s5.RecvReady()
			if err != nil {
				return genstreaming.SEnd{}, err
			}
			s7, err := s6.RecvReady()
			if err != nil {
				return genstreaming.SEnd{}, err
			}
			return s7.RecvReady()
		},
		T: func(t genstreaming.T0) (genstreaming.TEnd, error) {
			for {
				t2, err := t.SendReady()
				if err != nil {
					return genstreaming.TEnd{}, err
				}
				b, err := t2.Branch()
				if err != nil {
					return genstreaming.TEnd{}, err
				}
				if b.Label == genstreaming.LabelStop {
					return b.StopNext, nil
				}
				got = append(got, b.ValuePayload)
				t = b.ValueNext
			}
		},
	})
	return got, err
}

// monitoredStreamingValues runs the same derived-AMR streaming machines
// under the fully monitored Session runtime and returns the sink's value
// sequence.
func monitoredStreamingValues(n int) ([]int32, error) {
	e := protocols.Streaming()
	opt := map[types.Role]*fsm.FSM{}
	for r, l := range e.AutoOptimised() {
		opt[r] = fsm.MustFromLocal(r, l)
	}
	sess, err := session.TopDown(e.Global, opt, core.Options{})
	if err != nil {
		return nil, err
	}
	var got []int32
	err = sess.Run(map[types.Role]func(*session.Endpoint) error{
		"s": func(ep *session.Endpoint) error {
			// The derived schedule: two pipelined values, then one value per
			// ready, then stop and drain the three outstanding readys.
			for i := 0; i < 2; i++ {
				if err := ep.Send("t", "value", int32(i)); err != nil {
					return err
				}
			}
			for i := 2; i < n; i++ {
				if err := ep.Send("t", "value", int32(i)); err != nil {
					return err
				}
				if _, err := ep.ReceiveLabel("t", "ready"); err != nil {
					return err
				}
			}
			if err := ep.Send("t", "stop", nil); err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				if _, err := ep.ReceiveLabel("t", "ready"); err != nil {
					return err
				}
			}
			return nil
		},
		"t": func(ep *session.Endpoint) error {
			for {
				if err := ep.Send("s", "ready", nil); err != nil {
					return err
				}
				label, v, err := ep.Receive("s")
				if err != nil {
					return err
				}
				if label == "stop" {
					return nil
				}
				got = append(got, v.(int32))
			}
		},
	})
	return got, err
}

func TestGenStreamingCrossCheckMonitored(t *testing.T) {
	const n = 40
	gen, err := genStreamingValues(n)
	if err != nil {
		t.Fatalf("generated run: %v", err)
	}
	mon, err := monitoredStreamingValues(n)
	if err != nil {
		t.Fatalf("monitored run: %v", err)
	}
	if len(gen) != n || len(mon) != n {
		t.Fatalf("lengths: generated %d, monitored %d, want %d", len(gen), len(mon), n)
	}
	for i := range gen {
		if gen[i] != mon[i] {
			t.Fatalf("value %d: generated %d, monitored %d", i, gen[i], mon[i])
		}
	}
}

// monitoredDoubleBuffering runs the plain double-buffering machines under
// the monitored runtime for the given number of FSM loop turns (one value
// per turn) and returns the values moved.
func monitoredDoubleBuffering(turns int) (int, error) {
	e := protocols.DoubleBuffering()
	sess, err := session.TopDown(e.Global, nil, core.Options{})
	if err != nil {
		return 0, err
	}
	moved := 0
	err = sess.Run(map[types.Role]func(*session.Endpoint) error{
		"k": func(ep *session.Endpoint) error {
			for i := 0; i < turns; i++ {
				if err := ep.Send("s", "ready", nil); err != nil {
					return err
				}
				v, err := ep.ReceiveLabel("s", "value")
				if err != nil {
					return err
				}
				if _, err := ep.ReceiveLabel("t", "ready"); err != nil {
					return err
				}
				if err := ep.Send("t", "value", v); err != nil {
					return err
				}
			}
			return session.ErrStopped
		},
		"s": func(ep *session.Endpoint) error {
			for i := 0; i < turns; i++ {
				if _, err := ep.ReceiveLabel("k", "ready"); err != nil {
					return err
				}
				if err := ep.Send("k", "value", nil); err != nil {
					return err
				}
			}
			return session.ErrStopped
		},
		"t": func(ep *session.Endpoint) error {
			for i := 0; i < turns; i++ {
				if err := ep.Send("k", "ready", nil); err != nil {
					return err
				}
				if _, err := ep.ReceiveLabel("k", "value"); err != nil {
					return err
				}
				moved++
			}
			return session.ErrStopped
		},
	})
	return moved, err
}

func TestGenDoubleBufferingCrossCheckMonitored(t *testing.T) {
	const n = 50 // GenDoubleBuffering runs 2n turns (two iterations)
	gen, err := GenDoubleBuffering(n)
	if err != nil {
		t.Fatalf("generated run: %v", err)
	}
	mon, err := monitoredDoubleBuffering(2 * n)
	if err != nil {
		t.Fatalf("monitored run: %v", err)
	}
	if gen != mon || gen != 2*n {
		t.Fatalf("moved: generated %d, monitored %d, want %d", gen, mon, 2*n)
	}
}

// monitoredRing circulates the ring token for the given laps under the
// monitored runtime.
func monitoredRing(laps int) (int, error) {
	e := protocols.Ring()
	sess, err := session.TopDown(e.Global, nil, core.Options{})
	if err != nil {
		return 0, err
	}
	done := 0
	err = sess.Run(map[types.Role]func(*session.Endpoint) error{
		"a": func(ep *session.Endpoint) error {
			for i := 0; i < laps; i++ {
				if err := ep.Send("b", "v", nil); err != nil {
					return err
				}
				if _, err := ep.ReceiveLabel("c", "v"); err != nil {
					return err
				}
				done++
			}
			return session.ErrStopped
		},
		"b": func(ep *session.Endpoint) error {
			for i := 0; i < laps; i++ {
				if _, err := ep.ReceiveLabel("a", "v"); err != nil {
					return err
				}
				if err := ep.Send("c", "v", nil); err != nil {
					return err
				}
			}
			return session.ErrStopped
		},
		"c": func(ep *session.Endpoint) error {
			for i := 0; i < laps; i++ {
				if _, err := ep.ReceiveLabel("b", "v"); err != nil {
					return err
				}
				if err := ep.Send("a", "v", nil); err != nil {
					return err
				}
			}
			return session.ErrStopped
		},
	})
	return done, err
}

func TestGenRingCrossCheckMonitored(t *testing.T) {
	const laps = 64
	gen, err := GenRing(laps)
	if err != nil {
		t.Fatalf("generated run: %v", err)
	}
	mon, err := monitoredRing(laps)
	if err != nil {
		t.Fatalf("monitored run: %v", err)
	}
	if gen != laps || mon != laps {
		t.Fatalf("laps: generated %d, monitored %d, want %d", gen, mon, laps)
	}
}

// genElevatorLabels runs the generated elevator and returns the call labels
// the controller branched on, in order.
func genElevatorLabels(calls int) ([]types.Label, error) {
	net := genelev.NewNetwork()
	var seen []types.Label
	err := genelev.Run(net, genelev.Procs{
		P: func(p genelev.P0) error {
			var err error
			for i := 0; i < calls; i++ {
				if i%2 == 0 {
					p, err = p.SendUp()
				} else {
					p, err = p.SendDown()
				}
				if err != nil {
					return err
				}
			}
			return nil
		},
		E: func(e genelev.E0) error {
			for i := 0; i < calls; i++ {
				b, err := e.Branch()
				if err != nil {
					return err
				}
				seen = append(seen, b.Label)
				switch b.Label {
				case genelev.LabelUp:
					e3, err := b.UpNext.SendOpen()
					if err != nil {
						return err
					}
					if e, err = e3.RecvDone(); err != nil {
						return err
					}
				case genelev.LabelDown:
					e5, err := b.DownNext.SendOpen()
					if err != nil {
						return err
					}
					if e, err = e5.RecvDone(); err != nil {
						return err
					}
				}
			}
			return nil
		},
		D: func(d genelev.D0) error {
			for i := 0; i < calls; i++ {
				d2, err := d.RecvOpen()
				if err != nil {
					return err
				}
				if d, err = d2.SendDone(); err != nil {
					return err
				}
			}
			return nil
		},
	})
	return seen, err
}

// monitoredElevatorLabels is the monitored counterpart of genElevatorLabels.
func monitoredElevatorLabels(calls int) ([]types.Label, error) {
	e := protocols.Elevator()
	sess, err := session.TopDown(e.Global, nil, core.Options{})
	if err != nil {
		return nil, err
	}
	var seen []types.Label
	err = sess.Run(map[types.Role]func(*session.Endpoint) error{
		"p": func(ep *session.Endpoint) error {
			for i := 0; i < calls; i++ {
				label := types.Label("up")
				if i%2 == 1 {
					label = "down"
				}
				if err := ep.Send("e", label, nil); err != nil {
					return err
				}
			}
			return session.ErrStopped
		},
		"e": func(ep *session.Endpoint) error {
			for i := 0; i < calls; i++ {
				label, _, err := ep.Receive("p")
				if err != nil {
					return err
				}
				seen = append(seen, label)
				if err := ep.Send("d", "open", nil); err != nil {
					return err
				}
				if _, err := ep.ReceiveLabel("d", "done"); err != nil {
					return err
				}
			}
			return session.ErrStopped
		},
		"d": func(ep *session.Endpoint) error {
			for i := 0; i < calls; i++ {
				if _, err := ep.ReceiveLabel("e", "open"); err != nil {
					return err
				}
				if err := ep.Send("e", "done", nil); err != nil {
					return err
				}
			}
			return session.ErrStopped
		},
	})
	return seen, err
}

func TestGenElevatorCrossCheckMonitored(t *testing.T) {
	const calls = 32
	gen, err := genElevatorLabels(calls)
	if err != nil {
		t.Fatalf("generated run: %v", err)
	}
	mon, err := monitoredElevatorLabels(calls)
	if err != nil {
		t.Fatalf("monitored run: %v", err)
	}
	if len(gen) != calls || len(mon) != calls {
		t.Fatalf("lengths: generated %d, monitored %d, want %d", len(gen), len(mon), calls)
	}
	for i := range gen {
		if gen[i] != mon[i] {
			t.Fatalf("call %d: generated %s, monitored %s", i, gen[i], mon[i])
		}
	}
}

// TestGenFFTBitIdenticalToSequential runs the generated eight-worker FFT
// session and demands *bit-identical* agreement with the sequential
// transform (the RustFFT analogue): the butterfly stages perform the same
// arithmetic in the same operand order, so no tolerance is needed — any
// difference at all is a mis-wired exchange or a payload corrupted in
// flight. This is the tier-1 acceptance check for the vec<complex128>
// column sort: whole columns travel the generated monitor-free API as
// typed slices and come out exactly as the no-message-passing baseline
// computes them.
func TestGenFFTBitIdenticalToSequential(t *testing.T) {
	const rows = 64
	cols := randomMatrix(rows)
	seq := make([][]complex128, len(cols))
	for j := range seq {
		seq[j] = append([]complex128(nil), cols[j]...)
	}
	if err := fft.SequentialColumns(seq); err != nil {
		t.Fatal(err)
	}
	gen, err := GenFFT(cols)
	if err != nil {
		t.Fatalf("generated run: %v", err)
	}
	for j := range gen {
		nat := fft.BitReverse(j, 8) // the parallel schedule leaves worker j's column bit-reversed
		if len(gen[j]) != rows {
			t.Fatalf("worker %d produced %d rows, want %d", j, len(gen[j]), rows)
		}
		for r := range gen[j] {
			if gen[j][r] != seq[nat][r] {
				t.Fatalf("column %d row %d: generated %v, sequential %v (must be bit-identical)", nat, r, gen[j][r], seq[nat][r])
			}
		}
	}
}

// TestGenHelpers pins the simple counting contracts of the gen.go harness
// functions driving the Fig. 6 rumpsteak-gen column.
func TestGenHelpers(t *testing.T) {
	if got, err := GenStreaming(50); err != nil || got != 50 {
		t.Errorf("GenStreaming = %d, %v", got, err)
	}
	if _, err := GenStreaming(1); err == nil {
		t.Error("GenStreaming(1) should reject n below the pipelined depth")
	}
	if got, err := GenElevator(9); err != nil || got != 9 {
		t.Errorf("GenElevator = %d, %v", got, err)
	}
}

// GenRing circulates the ring token for laps rounds over the generated API
// and returns the completed lap count.
func GenRing(laps int) (int, error) {
	net := genring.NewNetwork()
	done := 0
	err := genring.Run(net, genring.Procs{
		A: func(a genring.A0) error {
			for i := 0; i < laps; i++ {
				a2, err := a.SendV()
				if err != nil {
					return err
				}
				if a, err = a2.RecvV(); err != nil {
					return err
				}
				done++
			}
			return nil
		},
		B: func(b genring.B0) error {
			for i := 0; i < laps; i++ {
				b2, err := b.RecvV()
				if err != nil {
					return err
				}
				if b, err = b2.SendV(); err != nil {
					return err
				}
			}
			return nil
		},
		C: func(c genring.C0) error {
			for i := 0; i < laps; i++ {
				c2, err := c.RecvV()
				if err != nil {
					return err
				}
				if c, err = c2.SendV(); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		return done, err
	}
	return done, nil
}

// GenElevator drives the elevator control loop for calls panel presses
// (alternating up and down) over the generated API, returning the number of
// door cycles the door actually performed.
func GenElevator(calls int) (int, error) {
	net := genelev.NewNetwork()
	opens := 0
	err := genelev.Run(net, genelev.Procs{
		P: func(p genelev.P0) error {
			var err error
			for i := 0; i < calls; i++ {
				if i%2 == 0 {
					p, err = p.SendUp()
				} else {
					p, err = p.SendDown()
				}
				if err != nil {
					return err
				}
			}
			return nil
		},
		E: func(e genelev.E0) error {
			for i := 0; i < calls; i++ {
				b, err := e.Branch()
				if err != nil {
					return err
				}
				switch b.Label {
				case genelev.LabelUp:
					e3, err := b.UpNext.SendOpen()
					if err != nil {
						return err
					}
					if e, err = e3.RecvDone(); err != nil {
						return err
					}
				case genelev.LabelDown:
					e5, err := b.DownNext.SendOpen()
					if err != nil {
						return err
					}
					if e, err = e5.RecvDone(); err != nil {
						return err
					}
				}
			}
			return nil
		},
		D: func(d genelev.D0) error {
			for i := 0; i < calls; i++ {
				d2, err := d.RecvOpen()
				if err != nil {
					return err
				}
				if d, err = d2.SendDone(); err != nil {
					return err
				}
				opens++
			}
			return nil
		},
	})
	if err != nil {
		return opens, err
	}
	if opens != calls {
		return opens, fmt.Errorf("bench: door opened %d of %d times", opens, calls)
	}
	return opens, nil
}
