package metrics

// Tests for the incremental sorted-merge machinery that replaced the full
// per-refresh re-sort, plus allocation regressions for the accessors the
// observability layer calls every monitor period.

import (
	"fmt"
	"math"
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

// TestIncrementalSummariesMatchFullSort records into 50 services over
// interleaved rounds — with heavy ties, zero latencies, single-sample
// services joining mid-stream and per-service summaries read between
// recordings, so some runs are sorted early and grow later — and checks
// every summary against nearest-rank percentiles of a from-scratch sort of
// the same samples.
func TestIncrementalSummariesMatchFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inc := NewRecorder()
	svcs := make([]string, 50)
	for i := range svcs {
		svcs[i] = fmt.Sprintf("svc-%02d", i)
	}
	history := map[string][]time.Duration{}
	record := func(svc string, lat time.Duration) {
		history[svc] = append(history[svc], lat)
		inc.RecordCompletion(inc.Stats(svc), lat)
	}
	for round := 0; round < 12; round++ {
		// Services 0-4 each record exactly one sample, one per round.
		if round < 5 {
			record(svcs[round], time.Duration(rng.Intn(5000))*time.Millisecond)
		}
		for i, n := 0, 200+rng.Intn(400); i < n; i++ {
			// 200 distinct values across thousands of samples: ties galore.
			record(svcs[5+rng.Intn(45)], time.Duration(rng.Intn(200))*10*time.Millisecond)
			if rng.Intn(40) == 0 {
				// A per-service read mid-stream sorts that run early.
				svc := svcs[rng.Intn(len(svcs))]
				if got, want := inc.SummarizeService(svc), refSummary(history[svc]); got != want {
					t.Fatalf("round %d: mid-stream %s summary %+v != full sort %+v", round, svc, got, want)
				}
			}
		}
		var all []time.Duration
		for _, lat := range history {
			all = append(all, lat...)
		}
		if got, want := inc.Summarize(), refSummary(all); got != want {
			t.Fatalf("round %d: incremental summary %+v != full-sort summary %+v", round, got, want)
		}
		for _, svc := range svcs {
			if got, want := inc.SummarizeService(svc), refSummary(history[svc]); got != want {
				t.Fatalf("round %d: service %s incremental %+v != full %+v", round, svc, got, want)
			}
		}
	}
}

// refSummary is the Summary of completed-only samples computed the direct
// way: sort a copy and index it by nearest rank.
func refSummary(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	n := len(sorted)
	at := func(p float64) time.Duration {
		return sorted[max(0, min(n-1, int(math.Ceil(p*float64(n)))-1))]
	}
	return Summary{
		Requests: uint64(n), Completed: uint64(n),
		MeanLatency: total / time.Duration(n),
		P50Latency:  at(0.50), P95Latency: at(0.95), P99Latency: at(0.99),
		MaxLatency: sorted[n-1],
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
