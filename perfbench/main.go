// Command perfbench is the repository benchmark: three closed-loop
// workloads that run whole verified sessions (in process and over unix
// sockets) and the verification toolchain, each checked against a
// reference. See README.md for the workloads, the metrics and the layer
// map.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload mux-inproc --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 a separate traced run reports the
// per-layer metrics, the layer ladder and the tracing overhead.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run performs its set-up; setup_s is the
// median. The last set-up is the one the measurement runs on.
const setupReps = 15

// workload is one benchmark workload over inputs drawn from a seed.
type workload interface {
	// digest identifies the generated inputs.
	digest() string
	// setup does the workload's real set-up work: verification, AMR
	// derivation, listen/dial/handshake and warming. It is timed.
	setup() error
	// measure runs ops in a closed loop until deadline, recording each
	// op in rec and, when tr is not nil, spans in tr.
	measure(deadline time.Time, rec *recorder, tr *tracer) error
	// layers reports the per-layer metrics of a traced measurement.
	layers(tr *tracer, put func(name string, v float64))
	// ladder returns the messages the layer ladder times.
	ladder() ladderSpec
	// teardown undoes setup.
	teardown()
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64) workload{
	"mux-inproc":    newMux,
	"pingpong-unix": newPingPong,
	"verify-corpus": newCorpus,
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: mux-inproc, pingpong-unix or verify-corpus")
	seed := flag.Uint64("seed", 1, "seed the inputs are drawn from")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU(), 2))
	res, err := run(*name, mk(*seed), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run performs the set-up setupReps times, then one measurement: untraced
// for the whole duration, or, when traced, an untraced half (allocations,
// the overhead baseline), a traced half and the layer ladder.
func run(name string, w workload, seed uint64, d time.Duration, traced bool) (result, error) {
	fmt.Printf("# box: goos=%s goarch=%s cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# inputs: workload=%s seed=%d digest=%s\n", name, seed, w.digest())

	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			w.teardown()
		}
	}

	fmt.Printf("# setups s: %.4f\n", setups)
	res := result{Metrics: map[string]metric{}}
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: units[name]} }
	if !traced {
		rec, err := measure(w, d, nil)
		if err != nil {
			return result{}, err
		}
		rec.summarise(put)
		put("setup_s", median(setups))
		res.Attempted, res.Failed = rec.ops, rec.failed
		res.Correct = rec.failed == 0
		w.teardown()
		return res, nil
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := measure(w, d/2, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	spans, err := measure(w, d/2, tr)
	if err != nil {
		return result{}, err
	}
	w.layers(tr, put)
	w.teardown()
	if err := runLadder(w.ladder(), put); err != nil {
		return result{}, fmt.Errorf("ladder: %w", err)
	}
	ops := float64(max(plain.ops, 1))
	put("allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	put("bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops)
	plainRate, tracedRate := plain.rate(), spans.rate()
	put("trace.overhead_frac", (plainRate-tracedRate)/plainRate)
	// Every per-layer metric is reported on every workload; a layer the
	// workload does not call reports 0.
	for m := range units {
		if _, ok := res.Metrics[m]; !ok && !endToEnd[m] {
			put(m, 0)
		}
	}
	if err := tr.dump(name, seed); err != nil {
		return result{}, err
	}
	res.Attempted = plain.ops + spans.ops
	res.Failed = plain.failed + spans.failed
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs one closed-loop measurement of length d and reports the
// first failed check, if any, on standard error.
func measure(w workload, d time.Duration, tr *tracer) (*recorder, error) {
	runtime.GC()
	rec := newRecorder(time.Now(), d)
	if err := w.measure(rec.deadline, rec, tr); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	if rec.ops == 0 {
		return nil, errors.New("measure: no op completed")
	}
	if rec.firstFail != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %s\n", rec.failed, rec.ops, rec.firstFail)
	}
	return rec, nil
}

// cpuModel returns the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
