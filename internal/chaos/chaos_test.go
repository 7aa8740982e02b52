package chaos

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/equiv"
	"repro/internal/netchan"
	"repro/internal/protocols"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/wire"
)

// soakConfig keeps the full soak around the 30s mark: the per-run deadline
// bounds the timeout arm (seeds ≡ 3 mod 4 with the stalled route actually
// in use). Every other cell must finish well inside it: a fault-free cell
// takes up to tens of milliseconds (2048 actions per role), armed or not,
// since a deadline-armed blocking operation parks on the substrate just as
// an unarmed one does.
var soakConfig = Config{Timeout: 300 * time.Millisecond}

// soakEntries is every registry protocol — the paper's Table 1 set plus the
// extended registry.
func soakEntries() []protocols.Entry {
	return append(protocols.Registry(), protocols.ExtraRegistry()...)
}

// soakSeeds covers every fault family (seed mod 4; see planFor) twice in the
// full soak, once in -short mode. The nightly workflow widens the sweep by
// setting CHAOS_SOAK_SEEDS=<n>, which runs seeds 0..n-1 — every family n/4
// times — without a recompile.
func soakSeeds() []uint64 {
	if v := os.Getenv("CHAOS_SOAK_SEEDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			seeds := make([]uint64, n)
			for i := range seeds {
				seeds[i] = uint64(i)
			}
			return seeds
		}
	}
	if testing.Short() {
		return []uint64{0, 1, 2, 3}
	}
	return []uint64{0, 1, 2, 3, 4, 5, 6, 7}
}

// waitGoroutines polls until the goroutine count returns to (near) base,
// failing the test if it does not: a leaked worker, watcher or process
// goroutine is a soak failure even when every run classified.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d running, started with %d", n, base)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// familiesCovered reports which fault families (seed mod 4) a seed sweep
// reaches; the arm-coverage assertions only apply when the sweep includes
// the family that produces the arm (a CHAOS_SOAK_SEEDS=2 run is all-clean
// by construction).
func familiesCovered(seeds []uint64) map[uint64]bool {
	fams := map[uint64]bool{}
	for _, s := range seeds {
		fams[s%4] = true
	}
	return fams
}

// TestChaosSoak is the acceptance soak: every registry protocol × seeds
// covering every fault family × the three execution modes. Each cell must
// land in the trichotomy — Clean, typed Timeout, or typed Abort — with the
// fault-free and would-block-storm families required to end Clean, and the
// whole soak leaking no goroutines. The go test -timeout flag is the hang
// detector: a cell that neither completes nor fails typed within its
// deadline would stall the test binary past it.
func TestChaosSoak(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	var counts [4]int
	for _, e := range soakEntries() {
		base, err := equiv.BuildSession(e)
		if err != nil {
			t.Fatalf("%s: building session: %v", e.Name, err)
		}
		for _, seed := range soakSeeds() {
			for _, mode := range equiv.Modes {
				res := Run(e.Name, base, seed, mode, soakConfig)
				counts[res.Class]++
				if res.Class == Unclassified {
					t.Errorf("%s seed=%d %s: unclassified outcome: %v", e.Name, seed, mode, res.Err)
				}
				if seed%4 <= 1 && res.Class != Clean {
					t.Errorf("%s seed=%d %s: fault family %d must end clean, got %s (%v)",
						e.Name, seed, mode, seed%4, res.Class, res.Err)
				}
			}
		}
	}
	t.Logf("soak outcomes: clean=%d timeout=%d abort=%d unclassified=%d",
		counts[Clean], counts[Timeout], counts[Abort], counts[Unclassified])
	fams := familiesCovered(soakSeeds())
	if fams[2] && counts[Abort] == 0 {
		t.Error("soak never exercised the abort arm")
	}
	if fams[3] && counts[Timeout] == 0 {
		t.Error("soak never exercised the timeout arm")
	}
	waitGoroutines(t, baseGoroutines)
}

// netSoakEntries is the wire-column protocol subset: the distributed test
// set (two- and three-role, finite and budget-cut, branching, and
// Elevator's pure sender) plus Hospital for a bottom-up-verified entry.
// Every route of every cell is a real netchan pipe, so the full matrix
// would multiply goroutine-pump setup by the whole registry for no extra
// coverage.
func netSoakEntries(t *testing.T) []protocols.Entry {
	t.Helper()
	names := []string{"Two Adder", "Three Adder", "Ring", "Ring With Choice", "Elevator", "Hospital"}
	entries := make([]protocols.Entry, 0, len(names))
	for _, n := range names {
		e, ok := protocols.Find(n)
		if !ok {
			t.Fatalf("registry lost %q", n)
		}
		entries = append(entries, e)
	}
	return entries
}

// TestChaosNetSoak is the network column of the soak: the same fault
// families and execution modes as TestChaosSoak, but every route is a
// Faulty-wrapped netchan pipe — each message crosses the wire codecs and
// both pumps before the session layer sees it. The trichotomy contract is
// unchanged: every cell classifies, the fault-free and would-block-storm
// families end Clean, and the abort and timeout arms both fire somewhere.
// Goroutines are the sharper edge here (every pipe runs a writer, a reader
// and a pump), so the leak check also pins Route.Abandon as a sufficient
// cleanup for arbitrarily faulted cells.
func TestChaosNetSoak(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	var counts [4]int
	for _, e := range netSoakEntries(t) {
		base, err := equiv.BuildSession(e)
		if err != nil {
			t.Fatalf("%s: building session: %v", e.Name, err)
		}
		for _, seed := range soakSeeds() {
			for _, mode := range equiv.Modes {
				res := RunNet(e, base, seed, mode, soakConfig)
				counts[res.Class]++
				if res.Class == Unclassified {
					t.Errorf("%s seed=%d %s: unclassified outcome: %v", e.Name, seed, mode, res.Err)
				}
				if seed%4 <= 1 && res.Class != Clean {
					t.Errorf("%s seed=%d %s: fault family %d must end clean, got %s (%v)",
						e.Name, seed, mode, seed%4, res.Class, res.Err)
				}
			}
		}
	}
	t.Logf("net soak outcomes: clean=%d timeout=%d abort=%d unclassified=%d",
		counts[Clean], counts[Timeout], counts[Abort], counts[Unclassified])
	fams := familiesCovered(soakSeeds())
	if fams[2] && counts[Abort] == 0 {
		t.Error("net soak never exercised the abort arm")
	}
	if fams[3] && counts[Timeout] == 0 {
		t.Error("net soak never exercised the timeout arm")
	}
	waitGoroutines(t, baseGoroutines)
}

// TestChaosStealSoak is the migration arm of the soak: every (protocol,
// seed) cell shares ONE scheduler sized to force stealing — MaxActive 1
// keeps each worker's hands on a single session, so the uneven cell costs
// (instant cleans next to deadline-parked stalls) leave quiescent work in
// inboxes for idle workers to raid. The contract is unchanged from
// TestChaosSoak: every cell classifies into the trichotomy, the fault-free
// and would-block-storm families end Clean, and nothing leaks — now with
// sessions completing on workers they were never enqueued on.
func TestChaosStealSoak(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	// MaxActive 1 is the steal-forcer. Unlike the sequential soaks, every
	// cell shares one deadline window, so the per-role budget is kept small
	// enough that the whole matrix's retry volume fits the window on a slow
	// single-core box; the trichotomy arms are unaffected (budget cuts are
	// Clean, the stall family still rides to its deadline).
	cfg := Config{Timeout: 4 * time.Second, Budget: 256}.withDefaults()
	s := sched.New(sched.Options{Workers: 4, MaxActive: 1, Quantum: 64})
	type cell struct {
		name string
		seed uint64
		res  chan error
	}
	var cells []*cell
	for _, e := range soakEntries() {
		base, err := equiv.BuildSession(e)
		if err != nil {
			t.Fatalf("%s: building session: %v", e.Name, err)
		}
		for _, seed := range soakSeeds() {
			inst := base.Fork().Rewire(faultyNetwork(seed))
			claimed, err := inst.Steppers(strategyFor, func(types.Role) int { return cfg.Budget })
			if err != nil {
				t.Fatalf("%s seed=%d: %v", e.Name, seed, err)
			}
			steppers := make([]sched.Stepper, len(claimed))
			for i, st := range claimed {
				steppers[i] = st
			}
			c := &cell{name: e.Name, seed: seed, res: make(chan error, 1)}
			deadline := time.Now().Add(cfg.Timeout)
			if err := s.Go(deadline, func(err error) { c.res <- err }, steppers...); err != nil {
				t.Fatalf("%s seed=%d: Go: %v", e.Name, seed, err)
			}
			cells = append(cells, c)
		}
	}
	// Close drains every in-flight cell; per-cell results were captured by
	// the onDone callbacks, so the aggregate error (first fault, by design)
	// is not consulted.
	s.Close()
	var counts [4]int
	for _, c := range cells {
		var err error
		select {
		case err = <-c.res:
		default:
			t.Fatalf("%s seed=%d: no result after Close", c.name, c.seed)
		}
		class := Classify(err)
		counts[class]++
		if class == Unclassified {
			t.Errorf("%s seed=%d: unclassified outcome: %v", c.name, c.seed, err)
		}
		if c.seed%4 <= 1 && class != Clean {
			t.Errorf("%s seed=%d: fault family %d must end clean, got %s (%v)",
				c.name, c.seed, c.seed%4, class, err)
		}
	}
	t.Logf("steal soak outcomes: clean=%d timeout=%d abort=%d unclassified=%d steals=%d",
		counts[Clean], counts[Timeout], counts[Abort], counts[Unclassified], s.Steals())
	if s.Steals() == 0 {
		t.Error("steal soak never migrated a session (MaxActive 1 over uneven cells should force it)")
	}
	waitGoroutines(t, baseGoroutines)
}

// driveSchedule pushes a fixed alternating workload — send message k
// (retrying through refusals), receive it (ditto) — through a Faulty route
// until the injected close ends it, and returns the observable schedule:
// the messages delivered and the effective operations completed.
// Refused probes yield (over the pipe a message is in the pumps' hands for
// a while); the probe cap is the hang detector for a genuinely wedged
// route.
func driveSchedule(t *testing.T, inner channel.Substrate, plan channel.FaultPlan) (delivered, ops int) {
	t.Helper()
	f := channel.NewFaulty(inner, plan)
	for probes := 0; ; {
		for {
			if probes++; probes > 1<<20 {
				t.Fatal("driveSchedule: probe budget exhausted — route wedged")
			}
			ok, err := f.TrySend(channel.Message{Label: "v", Value: int32(delivered)})
			if err != nil {
				return delivered, ops
			}
			if ok {
				ops++
				break
			}
			runtime.Gosched()
		}
		for {
			if probes++; probes > 1<<20 {
				t.Fatal("driveSchedule: probe budget exhausted — route wedged")
			}
			_, ok, err := f.TryRecv()
			if err != nil {
				return delivered, ops
			}
			if ok {
				delivered++
				ops++
				break
			}
			runtime.Gosched()
		}
	}
}

// TestFaultyWireScheduleMatchesRing is the cross-substrate determinism pin
// behind seed replayability: for one fixed message sequence, the fault
// schedule — how many messages cross, which effective operation the
// injected close lands on — is identical over an instant in-memory ring and
// over a real netchan pipe, where every message costs a timing-dependent
// number of would-block probes. This is exactly the property that makes a
// chaos seed meaningful on the network column at all.
func TestFaultyWireScheduleMatchesRing(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	tab, err := wire.TableFromGlobal("chaos-wire-pin",
		types.MustParseGlobal("mu t.a->b:v(i32).t"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 42, 1337} {
		plan := channel.FaultPlan{Seed: seed, WouldBlockP: 300, CloseAfter: 24}
		ringN, ringOps := driveSchedule(t, channel.NewRingQueue(), plan)
		route := netchan.Pipe(tab, netchan.Options{})
		wireN, wireOps := driveSchedule(t, route, plan)
		route.Abandon()
		if ringOps != 24 {
			t.Errorf("seed %d: ring close landed after %d effective ops, want 24", seed, ringOps)
		}
		if wireN != ringN || wireOps != ringOps {
			t.Errorf("seed %d: schedule drifted across substrates: wire %d/%d, ring %d/%d",
				seed, wireN, wireOps, ringN, ringOps)
		}
	}
	waitGoroutines(t, baseGoroutines)
}

// TestChaosSteppedDeterministic pins replayability where the harness owns
// the interleaving: in stepped mode (one goroutine, deterministic fault
// schedule, deterministic strategy) the same (protocol, seed) cell always
// produces the same class and error.
func TestChaosSteppedDeterministic(t *testing.T) {
	entries := soakEntries()[:3]
	for _, e := range entries {
		base, err := equiv.BuildSession(e)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, seed := range []uint64{1, 2, 3, 6, 7} {
			a := Run(e.Name, base, seed, equiv.Stepped, soakConfig)
			b := Run(e.Name, base, seed, equiv.Stepped, soakConfig)
			if a.Class != b.Class || fmt.Sprint(a.Err) != fmt.Sprint(b.Err) {
				t.Errorf("%s seed=%d replay diverged:\n  first:  %s\n  second: %s", e.Name, seed, a, b)
			}
		}
	}
}

// TestClassify pins the classifier against hand-built error chains.
func TestClassify(t *testing.T) {
	root := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Clean},
		{"budget cut through abort chain", &channel.CloseError{Cause: &session.ProtocolError{Cause: equiv.ErrBudgetCut}}, Clean},
		{"endpoint timeout", &session.TimeoutError{Role: "a", Op: "send", Peer: "b"}, Timeout},
		{"wrapped timeout", fmt.Errorf("role a: %w", &session.TimeoutError{Role: "a"}), Timeout},
		{"abort with role and cause", &channel.CloseError{Cause: &session.ProtocolError{Role: "b", Cause: root}}, Abort},
		{"injected close", &channel.CloseError{Cause: channel.ErrInjected}, Abort},
		{"bare close", channel.ErrClosed, Unclassified},
		{"unrelated", root, Unclassified},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestPanickingStepperUnderScheduler is the chaos-side half of the panic
// satellite: a stepper that panics mid-protocol, multiplexed with healthy
// sessions on the same pool, faults only its own session — the pool drains
// and every healthy session completes.
type chaosPanicStepper struct{ left int }

func (p *chaosPanicStepper) Step() (bool, error) {
	if p.left == 0 {
		panic("chaos: injected panic")
	}
	p.left--
	return false, nil
}

func (p *chaosPanicStepper) Abort() {}

func TestPanickingStepperUnderScheduler(t *testing.T) {
	e := soakEntries()[0]
	base, err := equiv.BuildSession(e)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.New(sched.Options{Workers: 2})
	healthy := 0
	for i := 0; i < 8; i++ {
		if i == 3 {
			if err := s.Go(time.Time{}, nil, &chaosPanicStepper{left: 2}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		healthy++
		if err := s.GoSessionPooled(base, 4096, strategyFor, time.Now().Add(5*time.Second), nil); err != nil {
			t.Fatal(err)
		}
	}
	err = s.Close()
	if err == nil {
		t.Fatal("Close returned nil despite a panicking stepper")
	}
	if Classify(err) != Unclassified {
		// The panic is a harness bug, not a protocol failure mode: it must
		// not masquerade as one of the trichotomy arms.
		t.Errorf("panic classified as %s: %v", Classify(err), err)
	}
}
