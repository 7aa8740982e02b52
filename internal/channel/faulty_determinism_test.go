package channel

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// laggyRing wraps a ring so every message needs several Try probes before
// it moves — the shape of a substrate with real latency (internal/netchan),
// where the number of would-block retries per message is timing noise. The
// lag here is deterministic only so the test itself is; Faulty must not
// care either way.
type laggyRing struct {
	inner *Ring
	lag   int
	// producer-owned / consumer-owned probe counters (SPSC, like the ring)
	sendProbes int
	recvProbes int
}

func (l *laggyRing) Send(m Message) error { return l.inner.Send(m) }
func (l *laggyRing) Recv() (Message, error) {
	return l.inner.Recv()
}
func (l *laggyRing) TrySend(m Message) (bool, error) {
	l.sendProbes++
	if l.sendProbes%l.lag != 0 {
		return false, nil
	}
	return l.inner.TrySend(m)
}
func (l *laggyRing) TryRecv() (Message, bool, error) {
	l.recvProbes++
	if l.recvProbes%l.lag != 0 {
		return Message{}, false, nil
	}
	return l.inner.TryRecv()
}
func (l *laggyRing) WaitSend(d time.Time) error { return l.inner.WaitSend(d) }
func (l *laggyRing) WaitRecv(d time.Time) error { return l.inner.WaitRecv(d) }
func (l *laggyRing) Close()                     { l.inner.Close() }
func (l *laggyRing) CloseWithError(e error)     { l.inner.CloseWithError(e) }

// schedule drives a fixed alternating workload — send message k (retrying
// through refusals), then receive it (ditto) — over a Faulty route and
// returns the observable fault schedule: how many messages crossed before
// the injected close, the effective-op count, and how many probes each
// message cost in total. The message sequence is identical across inners;
// only the probe counts vary with the inner's latency.
func schedule(t *testing.T, inner Substrate, plan FaultPlan) (delivered, ops, probes int) {
	t.Helper()
	f := NewFaulty(inner, plan)
	for {
		for {
			probes++
			ok, err := f.TrySend(Message{Label: "v", Value: delivered})
			if err != nil {
				return delivered, f.Ops(), probes
			}
			if ok {
				break
			}
		}
		for {
			probes++
			_, ok, err := f.TryRecv()
			if err != nil {
				return delivered, f.Ops(), probes
			}
			if ok {
				delivered++
				break
			}
		}
	}
}

// TestFaultyScheduleImmuneToProbeLatency is the probe-count-drift pin: for
// one fixed message sequence, the fault schedule (which message the
// injected close lands on, how many messages cross, the effective-op
// count) must be identical over an instant in-memory ring and over a
// substrate that eats several probes per message — because every roll is
// keyed to the message ordinal, not the probe. Under a per-probe PRNG this
// fails: the laggy substrate's extra probes advance the roll stream and
// the faults land on different messages.
func TestFaultyScheduleImmuneToProbeLatency(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1337} {
		plan := FaultPlan{Seed: seed, WouldBlockP: 300, CloseAfter: 24}
		fastN, fastOps, fastProbes := schedule(t, NewRing(4), plan)
		if fastOps != 24 {
			t.Errorf("seed %d: close landed after %d effective ops, want 24", seed, fastOps)
		}
		for _, lag := range []int{2, 5, 13} {
			lagN, lagOps, lagProbes := schedule(t, &laggyRing{inner: NewRing(4), lag: lag}, plan)
			if lagN != fastN || lagOps != fastOps {
				t.Errorf("seed %d lag %d: schedule drifted: delivered %d ops %d, want %d/%d",
					seed, lag, lagN, lagOps, fastN, fastOps)
			}
			if lagProbes <= fastProbes {
				t.Errorf("seed %d lag %d: laggy inner cost %d probes vs %d — the lag did not bite",
					seed, lag, lagProbes, fastProbes)
			}
		}
	}
}

// TestFaultyConcurrentOverLaggyInner is the race pin: a full SPSC
// producer/consumer pair hammering a Faulty route over a latency-laden
// inner, with an injected close ending the run. The exact schedule is
// interleaving-dependent (CloseAfter counts both sides); what must hold
// under -race is the SPSC safety of the ordinal state and a typed
// teardown.
func TestFaultyConcurrentOverLaggyInner(t *testing.T) {
	f := NewFaulty(&laggyRing{inner: NewRing(4), lag: 3},
		FaultPlan{Seed: 11, WouldBlockP: 250, CloseAfter: 60})
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			ok, err := f.TrySend(Message{Label: "v", Value: i})
			if err != nil {
				sendErr <- err
				return
			}
			if !ok {
				runtime.Gosched()
			}
		}
	}()
	for {
		_, ok, err := f.TryRecv()
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("receiver teardown: %v, want ErrInjected", err)
			}
			break
		}
		if !ok {
			runtime.Gosched()
		}
	}
	if err := <-sendErr; !errors.Is(err, ErrInjected) {
		t.Fatalf("sender teardown: %v, want ErrInjected", err)
	}
}

// TestFaultyRefusalChargedPerMessage pins the one-refusal-per-message
// contract over a transparent inner: every (false, nil) from TrySend on an
// uncontended ring is an injected refusal, and the refusal for a given
// message ordinal fires at most once — the retry goes through.
func TestFaultyRefusalChargedPerMessage(t *testing.T) {
	f := NewFaulty(NewRingQueue(), FaultPlan{Seed: 99, WouldBlockP: 400})
	refused := 0
	for sent := 0; sent < 200; {
		ok, err := f.TrySend(Message{Label: "v", Value: sent})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sent++
			continue
		}
		refused++
		// The retry of the same message must pass through.
		ok, err = f.TrySend(Message{Label: "v", Value: sent})
		if !ok || err != nil {
			t.Fatalf("message %d: retry after refusal refused again (ok=%v err=%v)", sent, ok, err)
		}
		sent++
	}
	if refused == 0 || refused == 200 {
		t.Fatalf("refusals %d of 200: the 40%% storm should refuse some but not all", refused)
	}
	if got := f.Ops(); got != 200 {
		t.Fatalf("effective ops %d, want 200 (refusals must not count)", got)
	}
}

// TestFaultyInjectedCloseAfterLands pins where the injected close lands in
// effective-op terms: with CloseAfter=n, exactly n operations complete and
// the n+1-th observes the teardown cause.
func TestFaultyInjectedCloseAfterLands(t *testing.T) {
	f := NewFaulty(NewRingQueue(), FaultPlan{Seed: 3, CloseAfter: 5})
	completed := 0
	for i := 0; i < 32; i++ {
		ok, err := f.TrySend(Message{Label: "v", Value: i})
		if err != nil {
			break
		}
		if ok {
			completed++
		}
	}
	if completed != 5 {
		t.Fatalf("completed %d sends before the injected close, want 5", completed)
	}
	if _, err := f.TrySend(Message{Label: "v"}); !errors.Is(err, ErrInjected) {
		t.Fatalf("after injected close: %v, want ErrInjected in the chain", err)
	}
}

// Ops returns the number of effective operations completed so far (both
// sides); chaos reports use it to describe how deep into a schedule a fault
// fired.
func (f *Faulty) Ops() int { return int(f.ops.Load()) }
