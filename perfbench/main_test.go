package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestDigestFollowsSeed: a seed always generates the same inputs, and
// another seed different ones.
func TestDigestFollowsSeed(t *testing.T) {
	for name, mk := range workloads {
		a, b, c := mk(1).digest(), mk(1).digest(), mk(2).digest()
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 both gave digest %s", name, a)
		}
	}
}

// TestMetricsEmittedWithUnits runs every workload briefly, untraced and
// traced, and checks that each run reports exactly the metrics
// BENCHMARK.json declares for it, each with its declared unit, and that
// every op passed its reference check.
func TestMetricsEmittedWithUnits(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		mk, ok := workloads[w.Name]
		if !ok {
			t.Errorf("BENCHMARK.json declares unknown workload %s", w.Name)
			continue
		}
		for traced, want := range map[bool][]struct{ Name, Unit string }{false: decl.EndToEnd, true: decl.PerLayer} {
			res, err := run(w.Name, mk(7), 7, 300*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct %v, %d of %d ops failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s (traced %v): metric %s not emitted", w.Name, traced, m.Name)
				} else if got.Unit == "" || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
