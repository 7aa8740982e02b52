package main

import (
	"slices"
	"sync"
	"time"
)

// units names the unit of every metric the benchmark reports. The
// end-to-end metrics come first, then the per-layer metrics of the traced
// run and the layer ladder.
var units = map[string]string{
	"ops_per_s": "ops/s",
	"op_p50_us": "us",
	"op_p99_us": "us",
	"setup_s":   "s",

	"allocs_per_op":       "allocs/op",
	"bytes_per_op":        "B/op",
	"trace.overhead_frac": "ratio",

	"sched.admit_us":           "us",
	"sched.steals_per_ks":      "steals/ks",
	"session.action_gap_us":    "us",
	"session.send_us":          "us",
	"session.recv_us":          "us",
	"amr.inflight_max":         "count",
	"amr.lookahead":            "count",
	"wire.oneway_us":           "us",
	"session.turnaround_us":    "us",
	"scribble.parse_us":        "us",
	"project.us":               "us",
	"kmc.us":                   "us",
	"kmc.configs":              "count",
	"optimise.us":              "us",
	"optimise.considered":      "count",
	"optimise.certified_ratio": "ratio",
	"core.us":                  "us",
	"core.visits":              "count",
	"codegen.us":               "us",
	"codegen.bytes":            "B",

	"channel.ring_ns":    "ns",
	"session.monitor_ns": "ns",
	"session.step_ns":    "ns",
	"sched.visit_ns":     "ns",
	"wire.encode_ns":     "ns",
	"wire.decode_ns":     "ns",
	"netchan.pipe_ns":    "ns",
	"netchan.unix_ns":    "ns",
}

// endToEnd names the metrics of an untraced run.
var endToEnd = map[string]bool{"ops_per_s": true, "op_p50_us": true, "op_p99_us": true, "setup_s": true}

// recorder collects the latency of every op of one measurement. It is
// safe for concurrent use: the scheduler completes sessions on several
// workers.
type recorder struct {
	start    time.Time
	deadline time.Time

	mu        sync.Mutex
	lat       []uint32 // op latencies in ns
	inTime    int64    // ops completed by the deadline
	last      time.Duration
	ops       int64
	failed    int64
	firstFail string
}

func newRecorder(start time.Time, d time.Duration) *recorder {
	return &recorder{start: start, deadline: start.Add(d)}
}

// done records one op that completed at now after lat; a non-empty fail
// marks it failed.
func (r *recorder) done(now time.Time, lat time.Duration, fail string) {
	ns := uint32(min(lat.Nanoseconds(), 1<<32-1))
	r.mu.Lock()
	r.ops++
	if fail != "" {
		r.failed++
		if r.firstFail == "" {
			r.firstFail = fail
		}
	}
	r.lat = append(r.lat, ns)
	if now.Before(r.deadline) {
		r.inTime++
		r.last = now.Sub(r.start)
	}
	r.mu.Unlock()
}

// rate is the ops completed per second up to the deadline, timed to the
// last of them. Ops that finish while in-flight work drains after the
// deadline count for latency only.
func (r *recorder) rate() float64 {
	if r.last <= 0 {
		return 0
	}
	return float64(r.inTime) / r.last.Seconds()
}

// summarise reports the run's throughput and its median and 99th
// percentile op latency.
func (r *recorder) summarise(put func(string, float64)) {
	put("ops_per_s", r.rate())
	put("op_p50_us", quantile(r.lat, 0.50)/1e3)
	put("op_p99_us", quantile(r.lat, 0.99)/1e3)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []uint32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[i])
	}
	frac := pos - float64(i)
	return float64(xs[i])*(1-frac) + float64(xs[i+1])*frac
}
