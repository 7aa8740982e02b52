package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/types"
)

func TestStreamingAllRuntimes(t *testing.T) {
	for _, rt := range Runtimes {
		rt := rt
		t.Run(rt.String(), func(t *testing.T) {
			t.Parallel()
			got, err := Streaming(rt, 50, 5)
			if err != nil {
				t.Fatal(err)
			}
			if got != 50 {
				t.Errorf("transferred %d values, want 50", got)
			}
		})
	}
}

func TestStreamingUnrollClamped(t *testing.T) {
	// unroll > n must not deadlock or overshoot.
	got, err := Streaming(RumpsteakOpt, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("transferred %d, want 3", got)
	}
}

func TestDoubleBufferingAllRuntimes(t *testing.T) {
	for _, rt := range Runtimes {
		rt := rt
		t.Run(rt.String(), func(t *testing.T) {
			t.Parallel()
			got, err := DoubleBuffering(rt, 100)
			if err != nil {
				t.Fatal(err)
			}
			if got != 200 { // two iterations of n values
				t.Errorf("moved %d values, want 200", got)
			}
		})
	}
}

func TestFFTAllRuntimes(t *testing.T) {
	for _, rt := range Runtimes {
		rt := rt
		t.Run(rt.String(), func(t *testing.T) {
			t.Parallel()
			got, err := FFTParallel(rt, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got != 64 {
				t.Errorf("processed %d rows, want 64", got)
			}
		})
	}
	if got, err := FFTSequential(64); err != nil || got != 64 {
		t.Errorf("sequential: %d %v", got, err)
	}
}

// TestMisWiredRunReturnsError pins the errgroup contract of the benchmark
// harness: a failed operation inside a worker goroutine must fail the single
// experiment with context — not panic and tear down the whole `go test
// -bench` or cmd/fig6 process — and must release sibling processes blocked
// on routes that will never deliver.
func TestMisWiredRunReturnsError(t *testing.T) {
	net := newRSNetwork("a", "b")
	done := make(chan error, 1)
	go func() {
		done <- net.run(map[types.Role]func(*session.Endpoint) error{
			// Mis-wired: sends to a role outside the network.
			"a": func(e *session.Endpoint) error {
				return e.Send("z", "ping", nil)
			},
			// Blocks on a message that will never arrive; the teardown must
			// release it with ErrClosed rather than leaking the goroutine.
			"b": func(e *session.Endpoint) error {
				_, _, err := e.Receive("a")
				return err
			},
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mis-wired run reported success")
		}
		if !strings.Contains(err.Error(), "role a") || !strings.Contains(err.Error(), "no route") {
			t.Errorf("error lacks context: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mis-wired run deadlocked instead of returning an error")
	}
}

// TestRunFirstErrorWins pins which error surfaces: the faulting process's
// own error, not the ErrClosed its siblings observe during teardown.
func TestRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	net := newRSNetwork("a", "b")
	err := net.run(map[types.Role]func(*session.Endpoint) error{
		"a": func(e *session.Endpoint) error { return boom },
		"b": func(e *session.Endpoint) error {
			_, _, err := e.Receive("a")
			return err
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("first error = %v, want %v", err, boom)
	}
	if errors.Is(err, channel.ErrClosed) {
		t.Fatalf("teardown error shadowed the faulting process: %v", err)
	}
}

// TestAutoSchedulesDerived confirms the RumpsteakAuto column actually
// consults the optimiser: the streaming unroll is read off the derived type,
// and the double-buffering and FFT schedules certify.
func TestAutoSchedulesDerived(t *testing.T) {
	u, err := autoStreamingUnroll(5)
	if err != nil {
		t.Fatal(err)
	}
	if u < 1 || u > 5 {
		t.Errorf("derived streaming unroll %d outside (0, 5]", u)
	}
	opt, err := autoDoubleBufferingOptimised()
	if err != nil || !opt {
		t.Errorf("double-buffering anticipation not derived: %v", err)
	}
	amr, err := autoFFTAllSendFirst()
	if err != nil || !amr {
		t.Errorf("FFT all-send-first schedule not certified: %v", err)
	}
}

func TestSessionStreamingBothSubstrates(t *testing.T) {
	for _, sub := range []NetworkSubstrate{RingSubstrate, QueueSubstrate} {
		got, err := SessionStreaming(sub, 40)
		if err != nil {
			t.Errorf("%s: %v", sub, err)
		}
		if got != 40 {
			t.Errorf("%s: received %d values, want 40", sub, got)
		}
	}
}

// BenchmarkSessionRunStreaming is the Session.Run end-to-end head-to-head:
// the full monitored runtime (verification cached, one FSM step per action)
// moving 100 values through the streaming protocol, per substrate.
func BenchmarkSessionRunStreaming(b *testing.B) {
	for _, sub := range []NetworkSubstrate{RingSubstrate, QueueSubstrate} {
		b.Run(sub.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SessionStreaming(sub, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenRunFFT is the generated-API FFT end to end: the eight-worker
// butterfly exchanging whole vec<complex128> columns through the typed
// state-pattern API — the FFT×rumpsteak-gen row of BENCH_codegen.json that
// closes the Fig. 6 coverage gap (no workload is excluded from the
// generated column any more).
func BenchmarkGenRunFFT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FFTParallel(RumpsteakGen, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenRunStreaming is the generated-API counterpart of
// BenchmarkSessionRunStreaming: the same streaming protocol moving 100
// values end to end, but with conformance enforced by the sessgen-generated
// state types instead of the runtime monitor — no FSM step, no sort check,
// route-bound sends. The pair is the headline number of BENCH_codegen.json.
func BenchmarkGenRunStreaming(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenStreaming(100); err != nil {
			b.Fatal(err)
		}
	}
}

func TestVerifyStreamingAllVerifiers(t *testing.T) {
	for _, v := range []Verifier{RumpsteakSubtyping, SoundBinary, KMC} {
		for _, n := range []int{0, 3, 10} {
			if err := VerifyStreaming(v, n); err != nil {
				t.Errorf("%s n=%d: %v", v, n, err)
			}
		}
	}
}

func TestVerifyNestedChoiceAllVerifiers(t *testing.T) {
	for _, v := range []Verifier{RumpsteakSubtyping, SoundBinary, KMC} {
		for n := 1; n <= 2; n++ {
			if err := VerifyNestedChoice(v, n); err != nil {
				t.Errorf("%s n=%d: %v", v, n, err)
			}
		}
	}
}

func TestVerifyRing(t *testing.T) {
	for _, v := range []Verifier{RumpsteakSubtyping, KMC} {
		for _, n := range []int{2, 4, 6} {
			if err := VerifyRing(v, n); err != nil {
				t.Errorf("%s n=%d: %v", v, n, err)
			}
		}
	}
	if err := VerifyRing(SoundBinary, 3); err == nil {
		t.Error("SoundBinary should not support the multiparty ring")
	}
}

func TestVerifyKBuffering(t *testing.T) {
	for _, v := range []Verifier{RumpsteakSubtyping, KMC} {
		for _, n := range []int{1, 4, 8} {
			if err := VerifyKBuffering(v, n); err != nil {
				t.Errorf("%s n=%d: %v", v, n, err)
			}
		}
	}
	if err := VerifyKBuffering(SoundBinary, 2); err == nil {
		t.Error("SoundBinary should not support multiparty k-buffering")
	}
}

func TestTable1Verdicts(t *testing.T) {
	rows := Table1()
	if len(rows) != 17 {
		t.Fatalf("Table1 has %d rows", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Entry.Name] = r
	}

	// Spot-check the paper's classifications.
	checks := []struct {
		name   string
		column string
		want   Cell
	}{
		{"Two Adder", "sesh", Yes},
		{"Two Adder", "rumpsteak", Yes},
		{"Three Adder", "sesh", Endpoint},
		{"Three Adder", "multicrusty", Yes},
		{"Optimised Streaming", "sesh", Endpoint},
		{"Optimised Streaming", "multicrusty", Endpoint},
		{"Optimised Streaming", "rumpsteak", Yes},
		{"Optimised Streaming", "kmc", Yes},
		{"Optimised Double Buffering", "rumpsteak", Yes},
		{"Optimised Double Buffering", "soundbinary", No},
		{"Hospital", "rumpsteak", Endpoint},
		{"Hospital", "kmc", Endpoint},
		{"Hospital", "soundbinary", Yes},
		{"FFT", "multicrusty", Yes},
		{"Optimised FFT", "multicrusty", Endpoint},
		{"Optimised FFT", "rumpsteak", Yes},
	}
	for _, c := range checks {
		row, ok := byName[c.name]
		if !ok {
			t.Errorf("row %q missing", c.name)
			continue
		}
		var got Cell
		switch c.column {
		case "sesh":
			got = row.Sesh
		case "ferrite":
			got = row.Ferrite
		case "multicrusty":
			got = row.MultiCrusty
		case "rumpsteak":
			got = row.Rumpsteak
		case "kmc":
			got = row.KMCCell
		case "soundbinary":
			got = row.SoundBin
		}
		if got != c.want {
			t.Errorf("%s/%s = %s, want %s", c.name, c.column, got, c.want)
		}
	}
}

func TestWriteCSVAndTable(t *testing.T) {
	series := []Series{
		{Name: "a", Points: []Point{{X: 1, Y: 0.5}, {X: 2, Y: 1.5}}},
		{Name: "b", Points: []Point{{X: 2, Y: 2.5}}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, "n", series); err != nil {
		t.Fatal(err)
	}
	want := "n,a,b\n1,0.5,\n2,1.5,2.5\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
	buf.Reset()
	if err := WriteTable(&buf, "n", series); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"n", "a", "b", "0.5", "2.5", "-"} {
		if !strings.Contains(out, frag) {
			t.Errorf("table missing %q:\n%s", frag, out)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	d, err := Time(func() error { time.Sleep(time.Millisecond); return nil })
	if err != nil || d < time.Millisecond {
		t.Errorf("Time = %v %v", d, err)
	}
	if _, err := TimeBest(0, func() error { return nil }); err != nil {
		t.Error(err)
	}
	wantErr := func() error { return errTest }
	if _, err := TimeBest(3, wantErr); err != errTest {
		t.Errorf("TimeBest error = %v", err)
	}
}

var errTest = errSentinel("test")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// NetworkSubstrate selects the session-network substrate for the
// Session.Run end-to-end experiments: the lock-free ring default against
// the mutex-queue baseline.
type NetworkSubstrate int

const (
	// RingSubstrate: lock-free SPSC rings (session.NewNetwork, the default).
	RingSubstrate NetworkSubstrate = iota
	// QueueSubstrate: mutex+cond queues (session.NewQueueNetwork).
	QueueSubstrate
)

func (s NetworkSubstrate) String() string {
	if s == QueueSubstrate {
		return "queue"
	}
	return "ring"
}

func (s NetworkSubstrate) network(roles ...types.Role) *session.Network {
	if s == QueueSubstrate {
		return session.NewQueueNetwork(roles...)
	}
	return session.NewNetwork(roles...)
}

// streamSess caches the verified streaming session so SessionStreaming
// measures the runtime (Session.Run on a fresh network per call), not
// projection and subtyping. The mutex serialises whole runs: each call
// rewires the shared cached session, so concurrent calls must not overlap.
var streamSess struct {
	mu   sync.Mutex
	sess *session.Session
	err  error
}

// SessionStreaming runs the streaming protocol end-to-end under the fully
// monitored session runtime — TopDown-verified FSMs, Session.Run, one
// monitor step per action — over the chosen substrate, returning the number
// of values the sink received. This is the Session.Run head-to-head behind
// the ring-vs-queue numbers in CHANGES.md. Calls are serialised (the
// verified session is shared and rewired per call).
func SessionStreaming(sub NetworkSubstrate, n int) (int, error) {
	streamSess.mu.Lock()
	defer streamSess.mu.Unlock()
	if streamSess.sess == nil && streamSess.err == nil {
		g := types.MustParseGlobal("mu x.t->s:ready.s->t:{value.x, stop.end}")
		streamSess.sess, streamSess.err = session.TopDown(g, nil, core.Options{})
	}
	if streamSess.err != nil {
		return 0, streamSess.err
	}
	s := streamSess.sess.Rewire(sub.network)
	received := 0
	err := s.Run(map[types.Role]func(*session.Endpoint) error{
		"s": func(e *session.Endpoint) error {
			for i := 0; ; i++ {
				if _, err := e.ReceiveLabel("t", "ready"); err != nil {
					return err
				}
				if i == n {
					return e.Send("t", "stop", nil)
				}
				if err := e.Send("t", "value", i); err != nil {
					return err
				}
			}
		},
		"t": func(e *session.Endpoint) error {
			for {
				if err := e.Send("s", "ready", nil); err != nil {
					return err
				}
				label, _, err := e.Receive("s")
				if err != nil {
					return err
				}
				if label == "stop" {
					return nil
				}
				received++
			}
		},
	})
	if err != nil {
		return received, err
	}
	if received != n {
		return received, fmt.Errorf("bench: session sink received %d of %d", received, n)
	}
	return received, nil
}
