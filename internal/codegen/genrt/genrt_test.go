package genrt

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/session"
)

func TestStOneShot(t *testing.T) {
	var err error
	sessionErr := Session(session.NewNetwork("a", "b"), "a", func(c *Core) error {
		st := c.Init()
		if err := st.peekAs("p.S0"); err != nil {
			t.Fatalf("initial stamp not live: %v", err)
		}
		next := st.advance()
		err = st.peekAs("p.S0") // the consumed stamp
		if !next.Live() {
			t.Error("minted successor not live")
		}
		if st.Live() {
			t.Error("consumed stamp still live")
		}
		return nil
	})
	if sessionErr != nil {
		t.Fatal(sessionErr)
	}
	if !errors.Is(err, ErrStateConsumed) {
		t.Errorf("consumed stamp = %v, want ErrStateConsumed", err)
	}
	var zero St
	if err := zero.peekAs("p.S0"); !errors.Is(err, ErrStateConsumed) {
		t.Errorf("zero stamp = %v, want ErrStateConsumed", err)
	}
}

// TestStNamedFaults pins the generated diagnostic form: a stale stamp's
// fault wraps ErrStateConsumed with the violating state type's name, so
// dynamic violations that slip past sessvet point at the state that
// faulted.
func TestStNamedFaults(t *testing.T) {
	var zero St
	err := zero.peekAs("streaming.B2")
	if !errors.Is(err, ErrStateConsumed) {
		t.Errorf("zero stamp = %v, want ErrStateConsumed", err)
	}
	if !strings.HasPrefix(err.Error(), "streaming.B2: ") {
		t.Errorf("message = %q, want the state name as prefix", err)
	}
	sessionErr := Session(session.NewNetwork("a", "b"), "a", func(c *Core) error {
		st := c.Init()
		st.advance()
		if err := st.peekAs("p.S0"); err == nil || !strings.Contains(err.Error(), "p.S0") {
			t.Errorf("consumed stamp = %v, want named fault", err)
		}
		return nil
	})
	if sessionErr != nil {
		t.Fatal(sessionErr)
	}
}

func TestFinish(t *testing.T) {
	net := session.NewNetwork("a", "b")
	err := Session(net, "a", func(c *Core) error {
		if err := Finish(c, c.Init()); err != nil {
			t.Errorf("live end rejected: %v", err)
		}
		stale := c.Init()
		stale.advance()
		if err := Finish(c, stale); !errors.Is(err, ErrIncomplete) {
			t.Errorf("stale end = %v, want ErrIncomplete", err)
		}
		if err := Finish(c, St{}); !errors.Is(err, ErrIncomplete) {
			t.Errorf("zero end = %v, want ErrIncomplete", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// An End minted by a different core must be rejected even when its
	// sequence number happens to match.
	var foreign St
	_ = Session(net, "b", func(c *Core) error { foreign = c.Init(); return nil })
	err = Session(net, "a", func(c *Core) error { return Finish(c, foreign) })
	if !errors.Is(err, ErrIncomplete) {
		t.Errorf("foreign end = %v, want ErrIncomplete", err)
	}
}

func TestSessionLinearity(t *testing.T) {
	net := session.NewNetwork("a", "b")
	block := make(chan struct{})
	started := make(chan struct{})
	go Session(net, "a", func(c *Core) error {
		close(started)
		<-block
		return nil
	})
	<-started
	err := Session(net, "a", func(c *Core) error { return nil })
	close(block)
	if !errors.Is(err, session.ErrLinearity) {
		t.Errorf("concurrent session = %v, want ErrLinearity", err)
	}
}

func TestRunnerFirstErrorTearsDown(t *testing.T) {
	net := session.NewNetwork("a", "b")
	boom := errors.New("boom")
	r := NewRunner(net)
	r.Go("a", func() error { return boom })
	r.Go("b", func() error {
		// Blocks on a message that will never arrive until the teardown
		// closes the route.
		from, err := session.UncheckedForCodegen(net.Endpoint("b")).From("a")
		if err != nil {
			return err
		}
		_, _, err = from.Recv()
		return err
	})
	if err := r.Wait(); !errors.Is(err, boom) {
		t.Errorf("first error = %v, want boom", err)
	}
}

func TestRunnerFiltersErrStopped(t *testing.T) {
	r := NewRunner(session.NewNetwork("a"))
	r.Go("a", func() error { return session.ErrStopped })
	if err := r.Wait(); err != nil {
		t.Errorf("ErrStopped surfaced: %v", err)
	}
}

func TestConverters(t *testing.T) {
	if v, err := I32(int32(7)); err != nil || v != 7 {
		t.Errorf("I32(int32) = %v, %v", v, err)
	}
	if v, err := I32(7); err != nil || v != 7 {
		t.Errorf("I32(int) = %v, %v", v, err)
	}
	if _, err := I32("no"); err == nil {
		t.Error("I32(string) accepted")
	}
	if v, err := Str("x"); err != nil || v != "x" {
		t.Errorf("Str = %v, %v", v, err)
	}
	if v, err := Nat(-1); err == nil {
		t.Errorf("Nat(-1) accepted as %d", v)
	}
	if v, err := Nat(3); err != nil || v != 3 {
		t.Errorf("Nat(3) = %v, %v", v, err)
	}
	if v, err := Bool(true); err != nil || !v {
		t.Errorf("Bool = %v, %v", v, err)
	}
	if v, err := F64(1.5); err != nil || v != 1.5 {
		t.Errorf("F64 = %v, %v", v, err)
	}
	// nil payloads (pure signals piggybacked onto sorted labels by
	// hand-written peers) convert to zero values, as the monitor accepts
	// them.
	if v, err := I32(nil); err != nil || v != 0 {
		t.Errorf("I32(nil) = %v, %v", v, err)
	}
}

// TestAsConverter pins the registry-sort converter: an exact typed
// assertion, zero-copy for slices (the returned slice aliases the one that
// travelled), zero value for nil, and a sort-naming error on mismatch.
func TestAsConverter(t *testing.T) {
	col := []complex128{1, 2i}
	got, err := As[[]complex128]("vec<complex128>", any(col))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || &got[0] != &col[0] {
		t.Error("As copied or reshaped the slice; want the zero-copy alias")
	}
	if v, err := As[[]complex128]("vec<complex128>", nil); err != nil || v != nil {
		t.Errorf("As(nil) = %v, %v", v, err)
	}
	if _, err := As[[]complex128]("vec<complex128>", []float64{1}); err == nil {
		t.Error("As accepted a []float64 for vec<complex128>")
	} else if want := "vec<complex128>"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the sort %q", err, want)
	}
	if v, err := As[complex128]("complex128", any(complex(1, 1))); err != nil || v != complex(1, 1) {
		t.Errorf("As[complex128] = %v, %v", v, err)
	}
}
