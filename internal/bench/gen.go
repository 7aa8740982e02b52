package bench

// This file is the RumpsteakGen column of Fig. 6: the same protocols as the
// Rumpsteak analogue, but driven through the typed state-pattern APIs that
// cmd/sessgen generates (examples/gen/...). Conformance is enforced by the
// generated types at compile time, so the runtime performs no per-message
// monitor step — the head-to-head against the fully monitored Session runs
// (SessionStreaming and BenchmarkSessionRunStreaming) isolates exactly what
// the paper's static-safety story buys on the hot path. Note two deliberate
// differences from the raw Rumpsteak columns: the generated code follows the
// verified FSM message by message (no SendN/ReceiveN batching of same-label
// runs), and the streaming schedule is whatever the checked-in generated
// package encodes (the derived AMR type pipelines two values ahead of their
// readys and one in the loop), not the unroll parameter.

import (
	"fmt"

	gendb "repro/examples/gen/doublebuffer"
	genfft "repro/examples/gen/fft"
	genstreaming "repro/examples/gen/streaming"
	"repro/internal/fft"
)

// GenStreaming runs the streaming protocol once over the generated
// monitor-free API, returning the number of values the sink received. The
// generated source encodes the derived AMR schedule, which hoists two value
// sends ahead of the loop, so n must be at least 2.
func GenStreaming(n int) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("bench: the generated streaming source pipelines 2 values ahead of its readys; need n >= 2, got %d", n)
	}
	net := genstreaming.NewNetwork()
	received := 0
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
				loop, err = s4.RecvReady()
				if err != nil {
					return genstreaming.SEnd{}, err
				}
			}
			s5, err := loop.SendStop()
			if err != nil {
				return genstreaming.SEnd{}, err
			}
			// Drain the readys matching the pipelined sends, then the final
			// ready — the End value is only reachable through all three.
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
				received++
				t = b.ValueNext
			}
		},
	})
	if err != nil {
		return received, err
	}
	if received != n {
		return received, fmt.Errorf("bench: generated sink received %d of %d", received, n)
	}
	return received, nil
}

// GenDoubleBuffering runs the double-buffering protocol over the generated
// API for two iterations of n values each (2n loop turns of the verified
// FSM, one value per turn), returning the values moved end to end.
func GenDoubleBuffering(n int) (int, error) {
	const iters = 2
	turns := iters * n
	net := gendb.NewNetwork()
	moved := 0
	err := gendb.Run(net, gendb.Procs{
		K: func(k gendb.K0) error {
			for i := 0; i < turns; i++ {
				k2, err := k.SendReady()
				if err != nil {
					return err
				}
				k3, err := k2.RecvValue()
				if err != nil {
					return err
				}
				k4, err := k3.RecvReady()
				if err != nil {
					return err
				}
				if k, err = k4.SendValue(); err != nil {
					return err
				}
			}
			return nil
		},
		S: func(s gendb.S0) error {
			for i := 0; i < turns; i++ {
				s2, err := s.RecvReady()
				if err != nil {
					return err
				}
				if s, err = s2.SendValue(); err != nil {
					return err
				}
			}
			return nil
		},
		T: func(t gendb.T0) error {
			for i := 0; i < turns; i++ {
				t2, err := t.SendReady()
				if err != nil {
					return err
				}
				if t, err = t2.RecvValue(); err != nil {
					return err
				}
				moved++
			}
			return nil
		},
	})
	if err != nil {
		return moved, err
	}
	return moved, nil
}

// fftGenStage computes worker j's column after stage si of the butterfly,
// given its own and its partner's columns — the same arithmetic, in the same
// operand order, as the sequential transform, so generated and sequential
// results agree bit for bit.
func fftGenStage(j, si int, mine, theirs []complex128) []complex128 {
	next := make([]complex128, len(mine))
	fft.StageOutput(8, j, fft.Stages(8)[si], mine, theirs, next)
	return next
}

// GenFFT runs the eight-process butterfly over the generated monitor-free
// API (examples/gen/fft, the registry's AMR all-send-first schedule baked
// into the types) and returns the transformed columns in worker order —
// bit-reversed positions, as the parallel schedule leaves them; callers
// needing natural order apply fft.BitReverse. Whole columns travel as
// single vec<complex128> messages, typed []complex128 end to end.
//
// Each worker's three exchanges walk distinct generated state types, so the
// eight processes are written out rather than looped; the protocol states
// differ per worker even though the schedule is uniform.
func GenFFT(cols [][]complex128) ([][]complex128, error) {
	if len(cols) != 8 {
		return nil, fmt.Errorf("bench: generated FFT wants 8 columns, got %d", len(cols))
	}
	net := genfft.NewNetwork()
	out := make([][]complex128, 8)
	err := genfft.Run(net, genfft.Procs{
		W0: func(s genfft.W00) (genfft.W0End, error) {
			cur := cols[0]
			s1, err := s.SendCol(cur)
			if err != nil {
				return genfft.W0End{}, err
			}
			theirs, s2, err := s1.RecvCol()
			if err != nil {
				return genfft.W0End{}, err
			}
			cur = fftGenStage(0, 0, cur, theirs)
			s3, err := s2.SendCol(cur)
			if err != nil {
				return genfft.W0End{}, err
			}
			theirs, s4, err := s3.RecvCol()
			if err != nil {
				return genfft.W0End{}, err
			}
			cur = fftGenStage(0, 1, cur, theirs)
			s5, err := s4.SendCol(cur)
			if err != nil {
				return genfft.W0End{}, err
			}
			theirs, end, err := s5.RecvCol()
			if err != nil {
				return genfft.W0End{}, err
			}
			out[0] = fftGenStage(0, 2, cur, theirs)
			return end, nil
		},
		W1: func(s genfft.W10) (genfft.W1End, error) {
			cur := cols[1]
			s1, err := s.SendCol(cur)
			if err != nil {
				return genfft.W1End{}, err
			}
			theirs, s2, err := s1.RecvCol()
			if err != nil {
				return genfft.W1End{}, err
			}
			cur = fftGenStage(1, 0, cur, theirs)
			s3, err := s2.SendCol(cur)
			if err != nil {
				return genfft.W1End{}, err
			}
			theirs, s4, err := s3.RecvCol()
			if err != nil {
				return genfft.W1End{}, err
			}
			cur = fftGenStage(1, 1, cur, theirs)
			s5, err := s4.SendCol(cur)
			if err != nil {
				return genfft.W1End{}, err
			}
			theirs, end, err := s5.RecvCol()
			if err != nil {
				return genfft.W1End{}, err
			}
			out[1] = fftGenStage(1, 2, cur, theirs)
			return end, nil
		},
		W2: func(s genfft.W20) (genfft.W2End, error) {
			cur := cols[2]
			s1, err := s.SendCol(cur)
			if err != nil {
				return genfft.W2End{}, err
			}
			theirs, s2, err := s1.RecvCol()
			if err != nil {
				return genfft.W2End{}, err
			}
			cur = fftGenStage(2, 0, cur, theirs)
			s3, err := s2.SendCol(cur)
			if err != nil {
				return genfft.W2End{}, err
			}
			theirs, s4, err := s3.RecvCol()
			if err != nil {
				return genfft.W2End{}, err
			}
			cur = fftGenStage(2, 1, cur, theirs)
			s5, err := s4.SendCol(cur)
			if err != nil {
				return genfft.W2End{}, err
			}
			theirs, end, err := s5.RecvCol()
			if err != nil {
				return genfft.W2End{}, err
			}
			out[2] = fftGenStage(2, 2, cur, theirs)
			return end, nil
		},
		W3: func(s genfft.W30) (genfft.W3End, error) {
			cur := cols[3]
			s1, err := s.SendCol(cur)
			if err != nil {
				return genfft.W3End{}, err
			}
			theirs, s2, err := s1.RecvCol()
			if err != nil {
				return genfft.W3End{}, err
			}
			cur = fftGenStage(3, 0, cur, theirs)
			s3, err := s2.SendCol(cur)
			if err != nil {
				return genfft.W3End{}, err
			}
			theirs, s4, err := s3.RecvCol()
			if err != nil {
				return genfft.W3End{}, err
			}
			cur = fftGenStage(3, 1, cur, theirs)
			s5, err := s4.SendCol(cur)
			if err != nil {
				return genfft.W3End{}, err
			}
			theirs, end, err := s5.RecvCol()
			if err != nil {
				return genfft.W3End{}, err
			}
			out[3] = fftGenStage(3, 2, cur, theirs)
			return end, nil
		},
		W4: func(s genfft.W40) (genfft.W4End, error) {
			cur := cols[4]
			s1, err := s.SendCol(cur)
			if err != nil {
				return genfft.W4End{}, err
			}
			theirs, s2, err := s1.RecvCol()
			if err != nil {
				return genfft.W4End{}, err
			}
			cur = fftGenStage(4, 0, cur, theirs)
			s3, err := s2.SendCol(cur)
			if err != nil {
				return genfft.W4End{}, err
			}
			theirs, s4, err := s3.RecvCol()
			if err != nil {
				return genfft.W4End{}, err
			}
			cur = fftGenStage(4, 1, cur, theirs)
			s5, err := s4.SendCol(cur)
			if err != nil {
				return genfft.W4End{}, err
			}
			theirs, end, err := s5.RecvCol()
			if err != nil {
				return genfft.W4End{}, err
			}
			out[4] = fftGenStage(4, 2, cur, theirs)
			return end, nil
		},
		W5: func(s genfft.W50) (genfft.W5End, error) {
			cur := cols[5]
			s1, err := s.SendCol(cur)
			if err != nil {
				return genfft.W5End{}, err
			}
			theirs, s2, err := s1.RecvCol()
			if err != nil {
				return genfft.W5End{}, err
			}
			cur = fftGenStage(5, 0, cur, theirs)
			s3, err := s2.SendCol(cur)
			if err != nil {
				return genfft.W5End{}, err
			}
			theirs, s4, err := s3.RecvCol()
			if err != nil {
				return genfft.W5End{}, err
			}
			cur = fftGenStage(5, 1, cur, theirs)
			s5, err := s4.SendCol(cur)
			if err != nil {
				return genfft.W5End{}, err
			}
			theirs, end, err := s5.RecvCol()
			if err != nil {
				return genfft.W5End{}, err
			}
			out[5] = fftGenStage(5, 2, cur, theirs)
			return end, nil
		},
		W6: func(s genfft.W60) (genfft.W6End, error) {
			cur := cols[6]
			s1, err := s.SendCol(cur)
			if err != nil {
				return genfft.W6End{}, err
			}
			theirs, s2, err := s1.RecvCol()
			if err != nil {
				return genfft.W6End{}, err
			}
			cur = fftGenStage(6, 0, cur, theirs)
			s3, err := s2.SendCol(cur)
			if err != nil {
				return genfft.W6End{}, err
			}
			theirs, s4, err := s3.RecvCol()
			if err != nil {
				return genfft.W6End{}, err
			}
			cur = fftGenStage(6, 1, cur, theirs)
			s5, err := s4.SendCol(cur)
			if err != nil {
				return genfft.W6End{}, err
			}
			theirs, end, err := s5.RecvCol()
			if err != nil {
				return genfft.W6End{}, err
			}
			out[6] = fftGenStage(6, 2, cur, theirs)
			return end, nil
		},
		W7: func(s genfft.W70) (genfft.W7End, error) {
			cur := cols[7]
			s1, err := s.SendCol(cur)
			if err != nil {
				return genfft.W7End{}, err
			}
			theirs, s2, err := s1.RecvCol()
			if err != nil {
				return genfft.W7End{}, err
			}
			cur = fftGenStage(7, 0, cur, theirs)
			s3, err := s2.SendCol(cur)
			if err != nil {
				return genfft.W7End{}, err
			}
			theirs, s4, err := s3.RecvCol()
			if err != nil {
				return genfft.W7End{}, err
			}
			cur = fftGenStage(7, 1, cur, theirs)
			s5, err := s4.SendCol(cur)
			if err != nil {
				return genfft.W7End{}, err
			}
			theirs, end, err := s5.RecvCol()
			if err != nil {
				return genfft.W7End{}, err
			}
			out[7] = fftGenStage(7, 2, cur, theirs)
			return end, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
