package codegen_test

import (
	"errors"
	"testing"

	genfft "repro/examples/gen/fft"
	genstreaming "repro/examples/gen/streaming"
	"repro/internal/codegen/genrt"
	"repro/internal/session"
	"repro/internal/types"
)

// The tests below pin what a generated transition does when its substrate
// refuses or its peer misbehaves, for Send, Recv with and without a payload
// and Branch, each in blocking and Try form:
//
//   - session.ErrWouldBlock (Try only) leaves the state live and retryable;
//   - a closed route consumes the state and returns the close cause;
//   - a raw peer's wrong label consumes the state, with genrt.Unexpected's
//     text;
//   - a payload that does not convert consumes the state.
//
// Every error return carries the zero successor. The generated streaming
// package covers Send, signal Recv and Branch; the FFT package covers Recv
// with a payload. Roles run on the test goroutine and nothing blocks: each
// fault is injected before the transition under test runs.

// errCause is the close cause the closed-route cases tear networks down with.
var errCause = errors.New("route torn down by the test")

// errAbandon ends a session body once the transition under test has run.
var errAbandon = errors.New("session abandoned by the test")

// raw is role r's endpoint on net, which carries no monitor: a
// hand-written peer that can put any label and payload on the wire.
func raw(net *session.Network, r types.Role) *session.Endpoint {
	return net.Endpoint(r)
}

func is(target error) func(error) bool {
	return func(err error) bool { return errors.Is(err, target) }
}

func sameText(want error) func(error) bool {
	return func(err error) bool { return err.Error() == want.Error() }
}

// consumed checks a failed transition: err satisfies want, the successor is
// the zero value, and driving the source state again faults with
// genrt.ErrStateConsumed.
func consumed[N comparable](t *testing.T, op string, next N, err error, want func(error) bool, again func() error) {
	t.Helper()
	var zero N
	if err == nil || !want(err) {
		t.Errorf("%s: err = %v", op, err)
	}
	if next != zero {
		t.Errorf("%s: error returned a non-zero successor %+v", op, next)
	}
	if err := again(); !errors.Is(err, genrt.ErrStateConsumed) {
		t.Errorf("%s: source state still live after the fault: retry = %v", op, err)
	}
}

// runT runs body as the streaming sink on net and abandons the session.
func runT(t *testing.T, net *session.Network, body func(genstreaming.T0)) {
	t.Helper()
	err := genstreaming.RunT(net, func(t0 genstreaming.T0) (genstreaming.TEnd, error) {
		body(t0)
		return genstreaming.TEnd{}, errAbandon
	})
	if !errors.Is(err, errAbandon) {
		t.Fatalf("RunT = %v", err)
	}
}

// runS runs body as the streaming source on net and abandons the session.
func runS(t *testing.T, net *session.Network, body func(genstreaming.S0)) {
	t.Helper()
	err := genstreaming.RunS(net, func(s0 genstreaming.S0) (genstreaming.SEnd, error) {
		body(s0)
		return genstreaming.SEnd{}, errAbandon
	})
	if !errors.Is(err, errAbandon) {
		t.Fatalf("RunS = %v", err)
	}
}

// boundedStreaming is a streaming network whose routes hold one message, so
// a prefilled route makes the next send would-block.
func boundedStreaming() *session.Network {
	return session.NewBoundedNetwork(1, genstreaming.Roles()...)
}

func TestGeneratedSendFaults(t *testing.T) {
	const S, T = genstreaming.RoleS, genstreaming.RoleT
	t.Run("signal/would-block", func(t *testing.T) {
		net := boundedStreaming()
		if err := raw(net, T).Send(S, genstreaming.LabelReady, nil); err != nil {
			t.Fatal(err)
		}
		runT(t, net, func(t0 genstreaming.T0) {
			t2, err := t0.TrySendReady()
			if !errors.Is(err, session.ErrWouldBlock) || t2 != (genstreaming.T2{}) {
				t.Fatalf("full route: %v; want ErrWouldBlock and the zero state", err)
			}
			if _, _, err := raw(net, S).Receive(T); err != nil {
				t.Fatal(err)
			}
			if t2, err = t0.TrySendReady(); err != nil {
				t.Fatalf("retry after would-block: %v", err)
			}
			if _, err := t2.TryBranch(); !errors.Is(err, session.ErrWouldBlock) {
				t.Errorf("successor of the retried send is not live: %v", err)
			}
		})
	})
	t.Run("payload/would-block", func(t *testing.T) {
		net := boundedStreaming()
		if err := raw(net, S).Send(T, genstreaming.LabelValue, int32(0)); err != nil {
			t.Fatal(err)
		}
		runS(t, net, func(s0 genstreaming.S0) {
			s1, err := s0.TrySendValue(7)
			if !errors.Is(err, session.ErrWouldBlock) || s1 != (genstreaming.S1{}) {
				t.Fatalf("full route: %v; want ErrWouldBlock and the zero state", err)
			}
			if _, _, err := raw(net, T).Receive(S); err != nil {
				t.Fatal(err)
			}
			if _, err = s0.TrySendValue(7); err != nil {
				t.Fatalf("retry after would-block: %v", err)
			}
			if _, v, err := raw(net, T).Receive(S); err != nil || v != int32(7) {
				t.Errorf("retried send delivered %v, %v; want 7", v, err)
			}
		})
	})
	for _, try := range []bool{false, true} {
		name := map[bool]string{false: "blocking", true: "try"}[try]
		t.Run("signal/closed/"+name, func(t *testing.T) {
			net := genstreaming.NewNetwork()
			runT(t, net, func(t0 genstreaming.T0) {
				send := func() (genstreaming.T2, error) {
					if try {
						return t0.TrySendReady()
					}
					return t0.SendReady()
				}
				net.CloseWithError(errCause)
				t2, err := send()
				consumed(t, "SendReady", t2, err, is(errCause), func() error { _, err := send(); return err })
			})
		})
		t.Run("payload/closed/"+name, func(t *testing.T) {
			net := genstreaming.NewNetwork()
			runS(t, net, func(s0 genstreaming.S0) {
				send := func(v int32) (genstreaming.S1, error) {
					if try {
						return s0.TrySendValue(v)
					}
					return s0.SendValue(v)
				}
				net.CloseWithError(errCause)
				s1, err := send(7)
				consumed(t, "SendValue", s1, err, is(errCause), func() error { _, err := send(7); return err })
			})
		})
	}
}

// toS4 drives the streaming source to S4, its signal receive: three values
// sent on an unbounded route no one reads.
func toS4(t *testing.T, s0 genstreaming.S0) genstreaming.S4 {
	t.Helper()
	s1, err := s0.SendValue(0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := s1.SendValue(1)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := s2.SendValue(2)
	if err != nil {
		t.Fatal(err)
	}
	return s4
}

func TestGeneratedSignalRecvFaults(t *testing.T) {
	const S, T = genstreaming.RoleS, genstreaming.RoleT
	t.Run("would-block", func(t *testing.T) {
		net := genstreaming.NewNetwork()
		runS(t, net, func(s0 genstreaming.S0) {
			s4 := toS4(t, s0)
			s2, err := s4.TryRecvReady()
			if !errors.Is(err, session.ErrWouldBlock) || s2 != (genstreaming.S2{}) {
				t.Fatalf("empty route: %v; want ErrWouldBlock and the zero state", err)
			}
			if err := raw(net, T).Send(S, genstreaming.LabelReady, nil); err != nil {
				t.Fatal(err)
			}
			if s2, err = s4.TryRecvReady(); err != nil {
				t.Fatalf("retry after would-block: %v", err)
			}
			if _, err := s2.TrySendStop(); err != nil {
				t.Errorf("successor of the retried receive is not live: %v", err)
			}
		})
	})
	faults := []struct {
		name   string
		inject func(net *session.Network) error
		want   func(error) bool
	}{
		{"closed", func(net *session.Network) error { net.CloseWithError(errCause); return nil }, is(errCause)},
		{"wrong label", func(net *session.Network) error { return raw(net, T).Send(S, "bogus", nil) },
			sameText(genrt.Unexpected(S, "S4", T, "bogus"))},
	}
	for _, f := range faults {
		for _, try := range []bool{false, true} {
			t.Run(f.name+"/"+map[bool]string{false: "blocking", true: "try"}[try], func(t *testing.T) {
				net := genstreaming.NewNetwork()
				runS(t, net, func(s0 genstreaming.S0) {
					s4 := toS4(t, s0)
					recv := func() (genstreaming.S2, error) {
						if try {
							return s4.TryRecvReady()
						}
						return s4.RecvReady()
					}
					if err := f.inject(net); err != nil {
						t.Fatal(err)
					}
					s2, err := recv()
					consumed(t, "RecvReady", s2, err, f.want, func() error { _, err := recv(); return err })
				})
			})
		}
	}
}

// runW0 runs body as FFT worker w0 on net, handing it W01 (a receive of a
// vec<complex128> column from w4) after one column sent.
func runW0(t *testing.T, net *session.Network, body func(genfft.W01)) {
	t.Helper()
	err := genfft.RunW0(net, func(w00 genfft.W00) (genfft.W0End, error) {
		w01, err := w00.SendCol([]complex128{1})
		if err != nil {
			return genfft.W0End{}, err
		}
		body(w01)
		return genfft.W0End{}, errAbandon
	})
	if !errors.Is(err, errAbandon) {
		t.Fatalf("RunW0 = %v", err)
	}
}

// payloadRecvResult is a payload receive's results, comparable as one value.
type payloadRecvResult struct {
	col  *complex128
	n    int
	next genfft.W02
}

func TestGeneratedPayloadRecvFaults(t *testing.T) {
	const W0, W4 = genfft.RoleW0, genfft.RoleW4
	t.Run("would-block", func(t *testing.T) {
		net := genfft.NewNetwork()
		runW0(t, net, func(w01 genfft.W01) {
			col, w02, err := w01.TryRecvCol()
			if !errors.Is(err, session.ErrWouldBlock) || col != nil || w02 != (genfft.W02{}) {
				t.Fatalf("empty route: %v; want ErrWouldBlock and zero values", err)
			}
			sent := []complex128{2, 3i}
			if err := raw(net, W4).Send(W0, genfft.LabelCol, sent); err != nil {
				t.Fatal(err)
			}
			if col, w02, err = w01.TryRecvCol(); err != nil || len(col) != 2 || &col[0] != &sent[0] {
				t.Fatalf("retry after would-block: %v, %v", col, err)
			}
			if _, err := w02.TrySendCol(nil); err != nil {
				t.Errorf("successor of the retried receive is not live: %v", err)
			}
		})
	})
	_, badPayload := genrt.As[[]complex128]("vec<complex128>", []float64{1})
	faults := []struct {
		name   string
		inject func(net *session.Network) error
		want   func(error) bool
	}{
		{"closed", func(net *session.Network) error { net.CloseWithError(errCause); return nil }, is(errCause)},
		{"wrong label", func(net *session.Network) error { return raw(net, W4).Send(W0, "bogus", nil) },
			sameText(genrt.Unexpected(W0, "W01", W4, "bogus"))},
		{"wrong payload", func(net *session.Network) error { return raw(net, W4).Send(W0, genfft.LabelCol, []float64{1}) },
			sameText(badPayload)},
	}
	for _, f := range faults {
		for _, try := range []bool{false, true} {
			t.Run(f.name+"/"+map[bool]string{false: "blocking", true: "try"}[try], func(t *testing.T) {
				net := genfft.NewNetwork()
				runW0(t, net, func(w01 genfft.W01) {
					recv := func() ([]complex128, genfft.W02, error) {
						if try {
							return w01.TryRecvCol()
						}
						return w01.RecvCol()
					}
					if err := f.inject(net); err != nil {
						t.Fatal(err)
					}
					col, w02, err := recv()
					res := payloadRecvResult{n: len(col), next: w02}
					if col != nil {
						res.col = &col[0]
					}
					consumed(t, "RecvCol", res, err, f.want, func() error { _, _, err := recv(); return err })
				})
			})
		}
	}
}

func TestGeneratedBranchFaults(t *testing.T) {
	const S, T = genstreaming.RoleS, genstreaming.RoleT
	// toT2 drives the sink to T2, its branch on the source's next message.
	toT2 := func(t *testing.T, t0 genstreaming.T0) genstreaming.T2 {
		t.Helper()
		t2, err := t0.SendReady()
		if err != nil {
			t.Fatal(err)
		}
		return t2
	}
	t.Run("would-block", func(t *testing.T) {
		net := genstreaming.NewNetwork()
		runT(t, net, func(t0 genstreaming.T0) {
			t2 := toT2(t, t0)
			b, err := t2.TryBranch()
			if !errors.Is(err, session.ErrWouldBlock) || b != (genstreaming.T2Branch{}) {
				t.Fatalf("empty route: %v; want ErrWouldBlock and the zero sum", err)
			}
			if err := raw(net, S).Send(T, genstreaming.LabelValue, int32(5)); err != nil {
				t.Fatal(err)
			}
			if b, err = t2.TryBranch(); err != nil {
				t.Fatalf("retry after would-block: %v", err)
			}
			if b.Label != genstreaming.LabelValue {
				t.Fatalf("retried branch took %s, want value", b.Label)
			}
			if b.ValuePayload != 5 {
				t.Errorf("retried branch delivered %d, want 5", b.ValuePayload)
			}
			if _, err := b.ValueNext.TrySendReady(); err != nil {
				t.Errorf("taken arm of the retried branch is not live: %v", err)
			}
		})
	})
	_, badPayload := genrt.I32("five")
	faults := []struct {
		name   string
		inject func(net *session.Network) error
		want   func(error) bool
	}{
		{"closed", func(net *session.Network) error { net.CloseWithError(errCause); return nil }, is(errCause)},
		{"wrong label", func(net *session.Network) error { return raw(net, S).Send(T, "bogus", nil) },
			sameText(genrt.Unexpected(T, "T2", S, "bogus"))},
		{"wrong payload", func(net *session.Network) error { return raw(net, S).Send(T, genstreaming.LabelValue, "five") },
			sameText(badPayload)},
	}
	for _, f := range faults {
		for _, try := range []bool{false, true} {
			t.Run(f.name+"/"+map[bool]string{false: "blocking", true: "try"}[try], func(t *testing.T) {
				net := genstreaming.NewNetwork()
				runT(t, net, func(t0 genstreaming.T0) {
					t2 := toT2(t, t0)
					branch := func() (genstreaming.T2Branch, error) {
						if try {
							return t2.TryBranch()
						}
						return t2.Branch()
					}
					if err := f.inject(net); err != nil {
						t.Fatal(err)
					}
					b, err := branch()
					consumed(t, "Branch", b, err, f.want, func() error { _, err := branch(); return err })
				})
			})
		}
	}
}
