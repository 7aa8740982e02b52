package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxDumped caps the spans kept for the dump file; aggregates cover every
// span.
const maxDumped = 1 << 16

// span is one timed call into a layer, made from the benchmark's own code.
// Spans of one op share op; parent is the id of the enclosing span, 0 at
// the root.
type span struct {
	name       string
	op         int64
	id, parent int64
	start, end int64 // ns since the tracer's epoch
}

// agg is the running self time of every span with one name.
type agg struct {
	n, selfNs int64
}

// tracer records spans and counters in memory for the traced run.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	lastID  int64
	spans   []span
	dropped int64
	aggs    map[string]*agg
	counts  map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), aggs: map[string]*agg{}, counts: map[string]float64{}}
}

// now is the tracer clock: monotonic ns since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span id, so a root span's children can name it before
// it ends.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	return t.lastID
}

// add records a finished span; childNs is the part of it its child spans
// covered, so its self time is its duration minus childNs. A zero id gets
// a fresh one. It returns the span's id.
func (t *tracer) add(s span, childNs int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.id == 0 {
		t.lastID++
		s.id = t.lastID
	}
	a := t.aggs[s.name]
	if a == nil {
		a = &agg{}
		t.aggs[s.name] = a
	}
	a.n++
	a.selfNs += s.end - s.start - childNs
	if len(t.spans) < maxDumped {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	return s.id
}

// count adds v to a counter.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// meanSelfUs is the mean self time, in µs, of the spans named name.
func (t *tracer) meanSelfUs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil || a.n == 0 {
		return 0
	}
	return float64(a.selfNs) / float64(a.n) / 1e3
}

// totalSelfUs is the summed self time, in µs, of the spans named name.
func (t *tracer) totalSelfUs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return float64(a.selfNs) / 1e3
	}
	return 0
}

// spanCount is the number of spans named name.
func (t *tracer) spanCount(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.aggs[name]; a != nil {
		return a.n
	}
	return 0
}

// counter returns a counter's total.
func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// dump writes the kept spans, one per line (name, op, id, parent, start
// and end in ns), to perfbench-trace/<workload>-<seed>.tsv in the work
// directory.
func (t *tracer) dump(workload string, seed uint64) error {
	dir := filepath.Join(workDir(), "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.tsv", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, "# name\top\tid\tparent\tstart_ns\tend_ns (%d spans not kept)\n", t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.name, s.op, s.id, s.parent, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workDir is the directory holding the benchmark binary (the build
// directory), relative to the working directory when possible so that unix
// socket paths stay short.
func workDir() string {
	exe, err := os.Executable()
	if err != nil {
		return "."
	}
	dir := filepath.Dir(exe)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, dir); err == nil {
			return rel
		}
	}
	return dir
}
