package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	boxA = box{Goos: "linux", Goarch: "amd64", CPU: "TestCPU @ 1GHz", CPUs: 4}
	boxB = box{Goos: "linux", Goarch: "arm64", CPU: "OtherCPU", CPUs: 8}
)

func snap(b box, results ...result) snapshot {
	return snapshot{Box: b, Results: results}
}

func row(name string, allocs, bytes float64) result {
	return result{Name: name, N: 1, Metrics: map[string]float64{"ns/op": 100, "allocs/op": allocs, "B/op": bytes}}
}

func TestValidationStillGates(t *testing.T) {
	if err := validate(snap(boxA, row("BenchmarkA/x", 10, 100)), ""); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	nan := row("BenchmarkA/x", 10, 100)
	nan.Metrics["ns/op"] = math.NaN()
	bad := map[string]snapshot{
		"empty":          snap(boxA),
		"no box":         snap(box{}, row("BenchmarkA/x", 10, 100)),
		"zero n":         snap(boxA, result{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 1}}),
		"non-finite":     snap(boxA, nan),
		"missing metric": snap(boxA, row("BenchmarkA/x", 10, 100)),
	}
	for name, s := range bad {
		if err := validate(s, "sessions/sec"); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		}
	}
}

// TestParseGoTestOutput feeds the parser the raw output shape of a
// multi-package `go test -bench -benchmem` run.
func TestParseGoTestOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: repro/internal/bench
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkSchedPooledSteady-4   	  312345	      3812 ns/op	    262345 sessions/sec	       0 B/op	       0 allocs/op
BenchmarkRingBatch/ring-4      	 1000000	      1043 ns/op	        61.36 msgs/us	       0 B/op	       0 allocs/op
--- BENCH: BenchmarkNoisy-4
    bench_test.go:12: a log line
PASS
ok  	repro/internal/bench	12.345s
goos: linux
goarch: amd64
pkg: repro/internal/netchan
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkNetPingPong/unix-4    	   94021	     12706 ns/op	       8 B/op	       2 allocs/op
PASS
ok  	repro/internal/netchan	3.210s
`
	got, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := box{Goos: "linux", Goarch: "amd64", CPU: "Intel(R) Xeon(R) Processor @ 2.70GHz", CPUs: got.Box.CPUs}
	if got.Box != want || got.Box.CPUs <= 0 {
		t.Fatalf("box = %+v, want %+v with this process's CPU count", got.Box, want)
	}
	wantResults := []result{
		{Name: "BenchmarkSchedPooledSteady-4", N: 312345, Metrics: map[string]float64{"ns/op": 3812, "sessions/sec": 262345, "B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkRingBatch/ring-4", N: 1000000, Metrics: map[string]float64{"ns/op": 1043, "msgs/us": 61.36, "B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkNetPingPong/unix-4", N: 94021, Metrics: map[string]float64{"ns/op": 12706, "B/op": 8, "allocs/op": 2}},
	}
	if len(got.Results) != len(wantResults) {
		t.Fatalf("parsed %d results, want %d: %+v", len(got.Results), len(wantResults), got.Results)
	}
	for i, w := range wantResults {
		g := got.Results[i]
		if g.Name != w.Name || g.N != w.N || len(g.Metrics) != len(w.Metrics) {
			t.Fatalf("result %d = %+v, want %+v", i, g, w)
		}
		for unit, v := range w.Metrics {
			if g.Metrics[unit] != v {
				t.Fatalf("result %d %s = %v, want %v", i, unit, g.Metrics[unit], v)
			}
		}
	}
	if normalize(got.Results[0].Name) != "BenchmarkSchedPooledSteady" {
		t.Fatalf("the -4 GOMAXPROCS suffix does not normalize away: %q", normalize(got.Results[0].Name))
	}
	if err := validate(got, "ns/op"); err != nil {
		t.Fatalf("parsed run does not validate: %v", err)
	}
	empty, err := parse(strings.NewReader("PASS\nok  \trepro/internal/bench\t0.01s\n"))
	if err != nil || len(empty.Results) != 0 || validate(empty, "") == nil {
		t.Fatalf("output with no result lines: %+v, %v", empty, err)
	}
}

func TestBaselineWithinToleranceAccepted(t *testing.T) {
	base := snap(boxA, row("BenchmarkA/x", 1000, 10000))
	cur := snap(boxA, row("BenchmarkA/x-4", 1100, 11000))
	if err := gate(cur, base, io.Discard); err != nil {
		t.Fatalf("within-tolerance run rejected (and the -4 suffix must normalize away): %v", err)
	}
}

// TestSeededAllocRegressionFails is the self-test the CI gate's credibility
// rests on: a doubled allocs/op count against the committed baseline MUST
// go red.
func TestSeededAllocRegressionFails(t *testing.T) {
	base := snap(boxA, row("BenchmarkSchedPooledSteady", 0, 0), row("BenchmarkA/x", 1000, 10000))
	cur := snap(boxA, row("BenchmarkSchedPooledSteady", 40, 512), row("BenchmarkA/x", 2100, 10000))
	err := gate(cur, base, io.Discard)
	if err == nil {
		t.Fatal("seeded allocs/op regression passed the gate")
	}
	if !strings.Contains(err.Error(), "allocs/op regressed") {
		t.Fatalf("regression error does not name the metric: %v", err)
	}
	if !strings.Contains(err.Error(), "BenchmarkA/x") {
		t.Fatalf("regression error does not name the column: %v", err)
	}
	// The 0-alloc steady row gets the absolute slack (32), so 40 allocs over
	// a 0 baseline must independently trip the gate.
	if !strings.Contains(err.Error(), "BenchmarkSchedPooledSteady") {
		t.Fatalf("0-alloc row regression not caught: %v", err)
	}
}

func TestBytesGatedOnlyOnSameBoxClass(t *testing.T) {
	base := snap(boxA, row("BenchmarkA/x", 100, 1000))
	if err := gate(snap(boxA, row("BenchmarkA/x", 100, 50000)), base, io.Discard); err == nil {
		t.Fatal("same-box B/op regression passed the gate")
	} else if !strings.Contains(err.Error(), "B/op regressed") {
		t.Fatalf("B/op regression error malformed: %v", err)
	}
	if err := gate(snap(boxB, row("BenchmarkA/x", 100, 50000)), base, io.Discard); err != nil {
		t.Fatalf("cross-box B/op difference must be skipped, got: %v", err)
	}
}

func TestNewAndDroppedColumnsFail(t *testing.T) {
	base := snap(boxA, row("BenchmarkOld", 10, 100), row("BenchmarkKept", 10, 100))
	cur := snap(boxA, row("BenchmarkNew", 10, 100), row("BenchmarkKept", 10, 100))
	err := gate(cur, base, io.Discard)
	if err == nil {
		t.Fatal("a dropped and a new column passed the gate")
	}
	for _, name := range []string{"BenchmarkOld", "BenchmarkNew"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("gate error does not name %s: %v", name, err)
		}
	}
	if strings.Contains(err.Error(), "BenchmarkKept") {
		t.Errorf("gate error names the column both hold: %v", err)
	}
}

// TestCommittedSnapshots checks the committed BENCH_<suite>.json files
// against the suites table: each is a valid box-annotated snapshot whose
// columns the suite's -bench regex selects, no column sits in two
// snapshots, and the smoke gate passes a run with exactly its columns but
// fails one with any column dropped or one column added.
func TestCommittedSnapshots(t *testing.T) {
	owner := map[string]string{}
	for _, s := range suites {
		t.Run(s.name, func(t *testing.T) {
			base, err := load(filepath.Join("..", "..", "BENCH_"+s.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := validate(base, s.metric); err != nil {
				t.Fatal(err)
			}
			re := regexp.MustCompile(s.bench)
			for _, r := range base.Results {
				name := normalize(r.Name)
				if top, _, _ := strings.Cut(name, "/"); !re.MatchString(top) {
					t.Errorf("%s is not selected by the suite's -bench %s", name, s.bench)
				}
				if other, dup := owner[name]; dup {
					t.Errorf("%s is in both BENCH_%s.json and BENCH_%s.json", name, other, s.name)
				}
				owner[name] = s.name
			}
			if err := gate(base, base, io.Discard); err != nil {
				t.Fatalf("the snapshot does not pass against itself: %v", err)
			}
			for i := range base.Results {
				cur := snap(base.Box, append(append([]result{}, base.Results[:i]...), base.Results[i+1:]...)...)
				if gate(cur, base, io.Discard) == nil {
					t.Errorf("a run without %s passed the gate", base.Results[i].Name)
				}
			}
			extra := snap(base.Box, append(append([]result{}, base.Results...), row("BenchmarkNotCommitted", 0, 0))...)
			if gate(extra, base, io.Discard) == nil {
				t.Error("a run with a column the snapshot lacks passed the gate")
			}
		})
	}
}

// TestFailedRunWritesNothing pins that a failing go test run, or one whose
// output does not validate, leaves the snapshot byte-identical, and that a
// smoke run writes the smoke file and gates it against the snapshot.
func TestFailedRunWritesNothing(t *testing.T) {
	t.Chdir(t.TempDir())
	s := suite{name: "x", bench: "^BenchmarkA$", pkgs: []string{"./a"}, metric: "sessions/sec"}
	const committed = `{"box":{"goos":"linux","goarch":"amd64","cpu":"TestCPU","cpus":2},"results":[{"name":"BenchmarkA-2","n":9,"metrics":{"allocs/op":3,"sessions/sec":5}}]}`
	if err := os.WriteFile("BENCH_x.json", []byte(committed), 0o644); err != nil {
		t.Fatal(err)
	}
	const good = "goos: linux\ngoarch: amd64\ncpu: TestCPU\nBenchmarkA-2 \t 2\t 10 ns/op\t 5 sessions/sec\t 3 allocs/op\nPASS\n"
	fake := func(out string, err error) goTest {
		return func(args []string) ([]byte, error) {
			if !strings.Contains(strings.Join(args, " "), "-bench ^BenchmarkA$ -benchmem") || args[len(args)-1] != "./a" {
				t.Errorf("go test args %q", args)
			}
			return []byte(out), err
		}
	}
	for _, smoke := range []bool{false, true} {
		if err := runSuite(s, smoke, fake(good, errors.New("exit status 1")), io.Discard); err == nil {
			t.Error("a failing go test run reported success")
		}
		if err := runSuite(s, smoke, fake("PASS\n", nil), io.Discard); err == nil {
			t.Error("a run with no results reported success")
		}
		if err := runSuite(s, smoke, fake(strings.Replace(good, "5 sessions/sec", "5 msgs/us", 1), nil), io.Discard); err == nil {
			t.Error("a run without the suite's metric reported success")
		}
		if data, _ := os.ReadFile("BENCH_x.json"); string(data) != committed {
			t.Fatalf("smoke=%v: a failed run rewrote the snapshot:\n%s", smoke, data)
		}
		if _, err := os.Stat("BENCH_smoke_x.json"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("smoke=%v: a failed run wrote the smoke file (%v)", smoke, err)
		}
	}

	if err := runSuite(s, true, fake(good, nil), io.Discard); err != nil {
		t.Fatalf("smoke run matching the snapshot failed: %v", err)
	}
	written, err := load("BENCH_smoke_x.json")
	if err != nil || len(written.Results) != 1 || written.Box.CPU != "TestCPU" {
		t.Fatalf("smoke file = %+v, %v", written, err)
	}
	if err := runSuite(s, true, fake(strings.Replace(good, "3 allocs/op", "99 allocs/op", 1), nil), io.Discard); err == nil {
		t.Fatal("smoke run with an allocs/op regression passed")
	}
	if err := runSuite(s, false, fake(good, nil), io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("BENCH_x.json")
	if err != nil || !bytes.Contains(data, []byte(`"name": "BenchmarkA-2"`)) || data[len(data)-1] != '\n' {
		t.Fatalf("full run wrote %q, %v", data, err)
	}
}
