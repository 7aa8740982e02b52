package equiv

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"
)

// childEnv carries the ChildConfig into the re-exec'd test binary: TestMain
// sees it set and becomes a sessnet child instead of running the tests.
const childEnv = "EQUIV_SESSNET_CHILD"

func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		var cfg ChildConfig
		if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		out, _ := json.Marshal(RunChild(cfg))
		os.Stdout.Write(out)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// selfSpawn re-execs this test binary as a sessnet child. The -test.run
// filter matches nothing: TestMain takes over before any test would run.
func selfSpawn(t *testing.T) Spawn {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return func(cfgJSON string) *exec.Cmd {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(), childEnv+"="+cfgJSON)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// The ISSUE acceptance criterion: the multi-process run — one OS process
// per role over the socket fabric — observes traces identical to the
// in-memory stepped reference, for at least three registry protocols.
// Two Adder is the minimal finite protocol, Three Adder adds a third
// process (and stub routes between remote peers), Ring exercises
// budget-stopped infinite recursion where the consistent cut does the
// terminating, and Ring With Choice adds branching so the deterministic
// strategy's choices must also survive the process split. Elevator's panel
// is a pure sender that finishes its whole role before any connection
// exists, pinning the close-flushes-through-pending-dial path end to end.
func TestDistributedTraceEqualsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns process fleets")
	}
	names := []string{"Two Adder", "Three Adder", "Ring", "Ring With Choice", "Elevator"}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, err := RunDistributed(name, "unix", t.TempDir(), 40, 30*time.Second, selfSpawn(t))
			if err != nil {
				t.Fatal(err)
			}
			assertDistResult(t, res)
		})
	}
}

// The TCP cell: same property over loopback TCP instead of unix sockets.
func TestDistributedTraceEqualsReferenceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns process fleets")
	}
	res, err := RunDistributed("Two Adder", "tcp", t.TempDir(), 40, 30*time.Second, selfSpawn(t))
	if err != nil {
		t.Fatal(err)
	}
	assertDistResult(t, res)
}

func assertDistResult(t *testing.T, res *DistResult) {
	t.Helper()
	if bad := res.Diverged(); len(bad) > 0 {
		for _, r := range bad {
			t.Errorf("role %s diverged:\n ref:   %v\n child: %v", r, res.Ref[r], res.Child[r])
		}
	}
	total := 0
	for r, ref := range res.Ref {
		if len(res.Child[r]) == 0 && len(ref) > 0 {
			t.Errorf("role %s: empty child trace", r)
		}
		total += len(ref)
	}
	if total == 0 {
		t.Fatal("empty reference traces: the property would hold vacuously")
	}
}
