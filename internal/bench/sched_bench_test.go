package bench

// The BENCH_sched.json benchmarks: sessions/sec vs concurrent-session count
// at several GOMAXPROCS settings (`make bench SUITE=sched`). The sched
// column is the scheduler (fixed worker pool, non-blocking stepping); the goroutines
// column is the classic 2-goroutines-per-session blocking shape, capped at
// 10k sessions where its 2n parked goroutines stop being a sensible
// baseline (100k sessions would park 200k goroutines).

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sched"
)

// schedSessionCounts is the session-count axis (1 → 100k).
var schedSessionCounts = []int{1, 100, 10000, 100000}

// schedProcSettings is the GOMAXPROCS / worker-pool axis.
var schedProcSettings = []int{1, 2, 4}

func BenchmarkSchedThroughput(b *testing.B) {
	for _, procs := range schedProcSettings {
		for _, n := range schedSessionCounts {
			b.Run(fmt.Sprintf("sessions=%d/procs=%d", n, procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := SchedThroughput(procs, n); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
			})
		}
	}
}

// schedPooledCounts is the pooled session-count axis: the flat-throughput
// claim is about the high end, so it starts where the unpooled axis gets
// expensive and rides to one million concurrent sessions (resident memory
// stays Backlog×Workers instances, so the row completes on a small box).
var schedPooledCounts = []int{10000, 100000, 1000000}

func stealName(noSteal bool) string {
	if noSteal {
		return "off"
	}
	return "on"
}

func BenchmarkSchedPooledThroughput(b *testing.B) {
	for _, procs := range schedProcSettings {
		for _, noSteal := range []bool{false, true} {
			for _, n := range schedPooledCounts {
				if n == 1000000 && procs != 1 {
					// One 1M row per steal setting is the scaling witness;
					// repeating it per GOMAXPROCS only slows the suite.
					continue
				}
				name := fmt.Sprintf("sessions=%d/procs=%d/steal=%s", n, procs, stealName(noSteal))
				b.Run(name, func(b *testing.B) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := SchedThroughputPooled(procs, n, noSteal); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
				})
			}
		}
	}
}

// BenchmarkSchedPooledSteady is the allocation column behind the pooling
// claim: one warmed worker running the streaming protocol through the
// pooled enqueue path, synchronously — allocs/op and B/op must both read 0
// (the tier-1 pin TestSchedPooledZeroAllocSteadyState asserts the same
// property via testing.AllocsPerRun; this row makes it visible in
// BENCH_sched.json and gateable by cmd/benchcheck).
func BenchmarkSchedPooledSteady(b *testing.B) {
	base, err := schedBaseSession()
	if err != nil {
		b.Fatal(err)
	}
	s := sched.New(sched.Options{Workers: 1, NoSteal: true})
	defer s.Close()
	done := make(chan error, 1)
	onDone := func(err error) { done <- err }
	run := func() error {
		if err := s.GoSessionPooled(base, schedSessionBudget, schedStrategy, time.Time{}, onDone); err != nil {
			return err
		}
		return <-done
	}
	for i := 0; i < 64; i++ { // warm the pool and the worker's slices
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
	// One session per op, so the row carries the same rate metric as the
	// rest of the sched matrix (BENCH_sched.json is gated on it).
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
}

// BenchmarkSchedPooledSteadySteal is BenchmarkSchedPooledSteady's sibling
// with work stealing on: two workers, each stepping one session at a time
// (MaxActive 1), take bursts of 8 pooled sessions, so every burst leaves
// overflow in an inbox for the other worker to steal. A stolen session
// still recycles onto its home worker's free list, so after warm-up the row
// must read 0 allocs/op and 0 B/op, like the one-worker row.
func BenchmarkSchedPooledSteadySteal(b *testing.B) {
	base, err := schedBaseSession()
	if err != nil {
		b.Fatal(err)
	}
	const burst = 8
	s := sched.New(sched.Options{Workers: 2, MaxActive: 1, Backlog: burst})
	defer s.Close()
	done := make(chan error, burst)
	onDone := func(err error) { done <- err }
	run := func(n int) error {
		for n > 0 {
			k := min(n, burst)
			for i := 0; i < k; i++ {
				if err := s.GoSessionPooled(base, schedSessionBudget, schedStrategy, time.Time{}, onDone); err != nil {
					return err
				}
			}
			for i := 0; i < k; i++ {
				if err := <-done; err != nil {
					return err
				}
			}
			n -= k
		}
		return nil
	}
	if err := run(1024); err != nil { // warm the pools, the workers' slices and the thieves' scratch
		b.Fatal(err)
	}
	steals := s.Steals()
	b.ReportAllocs()
	b.ResetTimer()
	if err := run(b.N); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
	b.ReportMetric(float64(s.Steals()-steals)/float64(b.N), "steals/session")
}

func BenchmarkSchedGoroutineBaseline(b *testing.B) {
	for _, n := range schedSessionCounts {
		if n > 10000 {
			continue
		}
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SchedGoroutineBaseline(n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
		})
	}
}

// TestSchedThroughputSmall is the tier-1 pin that the benchmark harness
// itself is sound: a small run completes with every session ending cleanly,
// on the forking, pooled (both steal settings) and goroutine-baseline paths.
func TestSchedThroughputSmall(t *testing.T) {
	for _, workers := range []int{1, 3} {
		if _, err := SchedThroughput(workers, 64); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, noSteal := range []bool{false, true} {
			if _, err := SchedThroughputPooled(workers, 64, noSteal); err != nil {
				t.Fatalf("workers=%d noSteal=%v: %v", workers, noSteal, err)
			}
		}
	}
	if _, err := SchedGoroutineBaseline(32); err != nil {
		t.Fatal(err)
	}
}
