package main

import (
	"encoding/json"
	"os"
	"runtime/debug"
	"testing"
)

// TestSmoke runs every workload at reduced size, plain and traced, and checks
// that all correctness gates pass and that every metric BENCHMARK.json names
// is printed with its declared unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			if traced && raceBuild() {
				t.Logf("%s: traced run skipped: under -race the profiler sees the race runtime's C frames, not the simulator's", w.Name)
				continue
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			res, err := run(w.Name, "..", 3, 1, traced, 0.2)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json declares %d",
					w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
