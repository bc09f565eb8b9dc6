package metrics

// Tests for the incremental sorted-merge machinery that replaced the full
// per-refresh re-sort, plus allocation regressions for the accessors the
// observability layer calls every monitor period.

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestMergeSortedSuffixProperty cross-checks the in-place suffix merge
// against a plain full sort across random prefix/suffix shapes, including
// the degenerate cases (empty prefix, empty suffix, suffix entirely before
// or after the prefix).
func TestMergeSortedSuffixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf []time.Duration
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		m := rng.Intn(40)
		all := make([]time.Duration, 0, n+m)
		for i := 0; i < n; i++ {
			all = append(all, time.Duration(rng.Intn(1000)))
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for i := 0; i < m; i++ {
			all = append(all, time.Duration(rng.Intn(1000)))
		}
		want := append([]time.Duration(nil), all...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		buf = mergeSortedSuffix(all, n, buf)
		for i := range want {
			if all[i] != want[i] {
				t.Fatalf("trial %d (n=%d m=%d): merged[%d] = %v, want %v\nmerged: %v\nwant:   %v",
					trial, n, m, i, all[i], want[i], all, want)
			}
		}
	}
}

// TestIncrementalSummariesMatchFullSort records in several interleaved
// rounds and checks that the incrementally-maintained percentile caches
// agree with a from-scratch recorder fed the same samples all at once.
func TestIncrementalSummariesMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inc := NewRecorder()
	type sample struct {
		svc string
		lat time.Duration
	}
	var history []sample
	svcs := []string{"a", "b", "c"}
	for round := 0; round < 10; round++ {
		for i := 0; i < 200; i++ {
			s := sample{svcs[rng.Intn(len(svcs))], time.Duration(rng.Intn(5000)) * time.Millisecond}
			history = append(history, s)
			inc.RecordCompletion(inc.Stats(s.svc), s.lat)
		}
		// Summarize mid-stream so later rounds merge into a warm cache.
		fresh := NewRecorder()
		for _, s := range history {
			fresh.RecordCompletion(fresh.Stats(s.svc), s.lat)
		}
		got, want := inc.Summarize(), fresh.Summarize()
		if got != want {
			t.Fatalf("round %d: incremental summary %+v != full-sort summary %+v", round, got, want)
		}
		for _, svc := range svcs {
			if g, w := inc.SummarizeService(svc), fresh.SummarizeService(svc); g != w {
				t.Fatalf("round %d: service %s incremental %+v != full %+v", round, svc, g, w)
			}
		}
	}
}

// TestServicesAllocFree pins the per-poll accessor to zero steady-state
// allocations: the returned slice is reused scratch.
func TestServicesAllocFree(t *testing.T) {
	r := NewRecorder()
	for _, svc := range []string{"a", "b", "c", "d"} {
		r.RecordCompletion(r.Stats(svc), time.Millisecond)
	}
	r.Services() // size the scratch buffer
	if allocs := testing.AllocsPerRun(100, func() { r.Services() }); allocs != 0 {
		t.Errorf("Services allocates %.1f objects/call, want 0", allocs)
	}
}
