// Command benchcheck runs the repository's go test benchmarks and keeps
// their snapshots: one box-annotated BENCH_<suite>.json per row of the
// suites table below.
//
//	go run ./cmd/benchcheck                # every suite, full length
//	go run ./cmd/benchcheck -suite sched   # one suite
//	go run ./cmd/benchcheck -smoke         # two iterations each, gated
//
// For each suite it runs `go test -run '^$' -bench <re> -benchmem` over the
// suite's packages from the current directory (the repository root),
// copying the raw output to stderr, and parses it into
//
//	{"box": {"goos": "linux", "goarch": "amd64",
//	         "cpu": "Intel(R) Xeon(R) Processor @ 2.70GHz", "cpus": 1},
//	 "results": [{"name": "BenchmarkPingPong/ring", "n": 3122941,
//	              "metrics": {"ns/op": 358.6, "B/op": 0, "allocs/op": 0}}, ...]}
//
// The box comes from the goos/goarch/cpu header lines go test prints (cpus
// is this process's visible CPU count, the same box by construction).
// Custom metrics reported via b.ReportMetric (e.g. "msgs/us") are kept. A
// run is written only when go test succeeds and its output validates: at
// least one result, finite metric values, and the suite's required custom
// metric on every result (the scheduler rows must carry sessions/sec).
//
// A full run writes BENCH_<suite>.json. A smoke run adds -benchtime 2x,
// writes BENCH_smoke_<suite>.json and gates it against the committed
// BENCH_<suite>.json. The committed snapshot is the list of expected
// columns: a column it holds that the run lacks fails the gate, and so does
// a column the run has that it lacks, so a renamed, dropped or new
// benchmark is adopted by committing a regenerated snapshot. On the
// columns both hold, allocs/op is gated on every box (it does not depend on
// the machine) and B/op only when both were measured on the same box class
// (goos+goarch+cpu), because allocator size classes vary across
// architectures. Timing (ns/op, custom rates) is never gated: two
// iterations on a noisy CI box say nothing about it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// suite is one snapshot: the benchmarks that write BENCH_<name>.json.
type suite struct {
	name string
	// bench is go test's -bench regex. It is anchored, so each column is
	// measured by exactly one suite, and it has no '/' (go test splits
	// -bench on '/' into one regex per sub-benchmark level).
	bench  string
	pkgs   []string
	metric string // custom metric every result must report, if any
}

var suites = []suite{
	// The substrate head-to-heads (SendRecv, PingPong, the batched ring
	// path), the network and endpoint hot paths, the deadline arm cost and
	// the monitor's branching step.
	{name: "channel",
		bench: `^Benchmark(SendRecv|PingPong|RingBatch|NetworkSendRecv|NetworkPingPong|NetworkSendRecvN|SessionSendRecvDeadline|MonitorStepBranching)$`,
		pkgs:  []string{"./internal/channel", "./internal/session"}},
	// The generated API against the monitored endpoint (Monitored vs
	// Unchecked, raw Unmonitored as the route-lookup baseline) and the
	// scheduler's stepper; the end-to-end streaming pair and the generated
	// FFT column; codegen.Generate itself on the Streaming, FFT and
	// depth-2 nested-choice machines, whose gated allocs/op would catch a
	// return of a whole-package re-print.
	{name: "codegen",
		bench: `^Benchmark(SendRecvMonitored|SendRecvUnchecked|SendRecvUnmonitored|StepperStep|GenRunStreaming|GenRunFFT|SessionRunStreaming|Generate)$`,
		pkgs:  []string{"./internal/session", "./internal/bench", "./internal/codegen"}},
	// Sessions/sec over the worker pool: the forking matrix, the pooled
	// matrix with its steal-on/steal-off ablation and 1M-session row, the
	// zero-alloc steady columns (one worker; two workers stealing), the
	// resident bytes of parked pooled instances, and the
	// per-session-goroutines baseline.
	{name: "sched",
		bench:  `^Benchmark(SchedThroughput|SchedPooledThroughput|SchedPooledSteady|SchedPooledSteadySteal|SchedPooledResident|SchedGoroutineBaseline)$`,
		pkgs:   []string{"./internal/bench"},
		metric: "sessions/sec"},
	// One message, a round trip and a 64-message batch over Unix sockets
	// and loopback TCP against the in-memory ring, plus the stepped round
	// trip of two sched.GoExternal sessions over Unix sockets.
	{name: "net",
		bench: `^Benchmark(NetSendRecv|NetPingPong|NetBatch64|NetSchedPingPong)$`,
		pkgs:  []string{"./internal/netchan"}},
	// Static verification at scale: core.Check over 1200-state chains,
	// k-MC over 1000-state systems, the AMR search at deep unrolls, and the
	// whole differential pipeline on one oversized cell; and the verifier
	// toolchain end to end over the Table 1 global types, whose gated
	// allocs/op is the verifier's end-to-end allocation count.
	{name: "check",
		bench: `^Benchmark(CheckScale|KmcScale|OptimiseScale|PipelineDeep|VerifyTable1)$`,
		pkgs:  []string{"./internal/protofuzz"}},
}

type result struct {
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	Metrics map[string]float64 `json:"metrics"`
}

type box struct {
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`
	CPU    string `json:"cpu"`
	CPUs   int    `json:"cpus"`
}

type snapshot struct {
	Box     box      `json:"box"`
	Results []result `json:"results"`
}

// parse reads raw `go test -bench` output. Lines other than the box
// headers and result lines (pkg:, PASS, ok) are skipped.
func parse(r io.Reader) (snapshot, error) {
	snap := snapshot{
		// Defaults from this process; the header lines override them.
		Box:     box{Goos: runtime.GOOS, Goarch: runtime.GOARCH, CPUs: runtime.NumCPU()},
		Results: []result{}, // encode as [] (not null)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			snap.Box.Goos = strings.TrimSpace(v)
		} else if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			snap.Box.Goarch = strings.TrimSpace(v)
		} else if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			snap.Box.CPU = strings.TrimSpace(v)
		} else if r, ok := parseLine(line); ok {
			snap.Results = append(snap.Results, r)
		}
	}
	return snap, sc.Err()
}

// parseLine decodes one `go test -bench` result line:
//
//	BenchmarkName[-P] <N> <value> <unit> [<value> <unit>]...
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], N: n, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	if len(r.Metrics) == 0 {
		return result{}, false
	}
	return r, true
}

// validate rejects a snapshot that must not be written or trusted.
func validate(snap snapshot, metric string) error {
	if snap.Box.Goos == "" || snap.Box.Goarch == "" {
		return fmt.Errorf("no box block")
	}
	if len(snap.Results) == 0 {
		return fmt.Errorf("no benchmark results")
	}
	for _, r := range snap.Results {
		if r.Name == "" || r.N <= 0 || len(r.Metrics) == 0 {
			return fmt.Errorf("malformed result: %+v", r)
		}
		for unit, v := range r.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s metric %s is %v", r.Name, unit, v)
			}
		}
		if _, ok := r.Metrics[metric]; metric != "" && !ok {
			return fmt.Errorf("%s does not report the required metric %q", r.Name, metric)
		}
	}
	return nil
}

func load(path string) (snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return snapshot{}, err
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return snapshot{}, fmt.Errorf("%s is not a benchcheck snapshot: %v", path, err)
	}
	if err := validate(snap, ""); err != nil {
		return snapshot{}, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

func sameBoxClass(a, b box) bool {
	return a.Goos == b.Goos && a.Goarch == b.Goarch && a.CPU == b.CPU
}

// gomaxprocsSuffix is the "-<digits>" GOMAXPROCS marker go test appends to
// benchmark names (none at GOMAXPROCS=1); normalize strips it so a run at
// any -cpu lines up with the committed snapshot.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func normalize(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// The gate's slack: a measured value may exceed its baseline by
// base*rel + abs before the gate trips.
const (
	allocsRel, allocsAbs = 0.25, 32
	bytesRel, bytesAbs   = 0.50, 4096
)

// gate compares a run against the committed snapshot base: the same set of
// columns, and the memory metrics within tolerance.
func gate(cur, base snapshot, stdout io.Writer) error {
	baseByName := map[string]result{}
	for _, r := range base.Results {
		baseByName[normalize(r.Name)] = r
	}
	sameBox := sameBoxClass(cur.Box, base.Box)
	if !sameBox {
		fmt.Fprintln(stdout, "benchcheck: NOTE: run and snapshot were measured on different box classes; B/op not gated (allocs/op still is)")
	}
	var failures []string
	seen := map[string]bool{}
	for _, r := range cur.Results {
		name := normalize(r.Name)
		seen[name] = true
		b, ok := baseByName[name]
		if !ok {
			failures = append(failures, name+": new column, not in the committed snapshot; regenerate it with make bench")
			continue
		}
		if f := exceeds(name, "allocs/op", b, r, allocsRel, allocsAbs); f != "" {
			failures = append(failures, f)
		}
		if f := exceeds(name, "B/op", b, r, bytesRel, bytesAbs); f != "" && sameBox {
			failures = append(failures, f)
		}
	}
	var gone []string
	for name := range baseByName {
		if !seen[name] {
			gone = append(gone, name+": column missing from the run")
		}
	}
	sort.Strings(gone)
	failures = append(failures, gone...)
	if len(failures) > 0 {
		return fmt.Errorf("gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// exceeds describes cur's regression on unit against base, or returns ""
// when cur is within base*(1+rel)+abs or either side lacks the metric.
func exceeds(name, unit string, base, cur result, rel, abs float64) string {
	bv, bok := base.Metrics[unit]
	cv, cok := cur.Metrics[unit]
	if !bok || !cok || cv <= bv*(1+rel)+abs {
		return ""
	}
	return fmt.Sprintf("%s: %s regressed: %.0f measured vs %.0f baseline (tolerance %.0f%% + %.0f)",
		name, unit, cv, bv, rel*100, abs)
}

// goTest runs `go test args...`, copying its output to stderr, and returns
// its standard output; main passes execGoTest, tests a fake.
type goTest func(args []string) ([]byte, error)

func execGoTest(args []string) ([]byte, error) {
	var out bytes.Buffer
	cmd := exec.Command("go", append([]string{"test"}, args...)...)
	cmd.Stdout = io.MultiWriter(&out, os.Stderr)
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	return out.Bytes(), err
}

// runSuite runs one suite and writes its snapshot (gating it, with smoke).
func runSuite(s suite, smoke bool, test goTest, stdout io.Writer) error {
	args := []string{"-run", "^$", "-bench", s.bench, "-benchmem", "-timeout", "1800s"}
	path := "BENCH_" + s.name + ".json"
	if smoke {
		// Two iterations keep the run fast; the one-iteration sizing probe
		// go test runs first absorbs one-time lazy setup, so it does not
		// inflate the gated allocs/op of the measured iterations.
		args = append(args, "-benchtime", "2x")
		path = "BENCH_smoke_" + s.name + ".json"
	}
	out, err := test(append(args, s.pkgs...))
	if err != nil {
		return fmt.Errorf("%s: go test: %w", s.name, err)
	}
	snap, err := parse(bytes.NewReader(out))
	if err == nil {
		err = validate(snap, s.metric)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchcheck: wrote %s (%d results)\n", path, len(snap.Results))
	if !smoke {
		return nil
	}
	committed := "BENCH_" + s.name + ".json"
	base, err := load(committed)
	if err != nil {
		return err
	}
	if err := gate(snap, base, stdout); err != nil {
		return fmt.Errorf("%s against %s: %w", path, committed, err)
	}
	fmt.Fprintf(stdout, "benchcheck: %s matches the columns of %s and is within tolerance\n", path, committed)
	return nil
}

func main() {
	smoke := flag.Bool("smoke", false, "two iterations per benchmark, written to BENCH_smoke_<suite>.json and gated against BENCH_<suite>.json")
	only := flag.String("suite", "", "run only this suite (default: all)")
	flag.Parse()
	var todo []suite
	for _, s := range suites {
		if *only == "" || s.name == *only {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		var names []string
		for _, s := range suites {
			names = append(names, s.name)
		}
		fmt.Fprintf(os.Stderr, "benchcheck: unknown suite %q (have %s)\n", *only, strings.Join(names, ", "))
		os.Exit(2)
	}
	for _, s := range todo {
		if err := runSuite(s, *smoke, execGoTest, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
	}
}
