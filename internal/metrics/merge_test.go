package metrics

// Tests for the distinct-value latency store — the shared pending buffer
// folded into per-service runs of distinct values with cumulative counts —
// plus allocation regressions for the accessors the observability layer
// calls every monitor period.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// rle returns the distinct values of samples in ascending order with their
// cumulative counts, computed the direct way: sort a copy and count runs.
func rle(samples []time.Duration) (vals []time.Duration, cum []int) {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			vals = append(vals, v)
			cum = append(cum, 0)
		}
		cum[len(cum)-1] = i + 1
	}
	return vals, cum
}

// TestFoldMatchesRunLengthEncodedSort records random samples into a few
// services — heavy ties, zero latencies and values near the top of the
// int64 range — folding at random points and reading per-service summaries
// in between, and checks every service's distinct run and cumulative counts
// against the run-length encoding of a direct sort of its samples.
func TestFoldMatchesRunLengthEncodedSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		r := NewRecorder()
		svcs := make([]string, 1+rng.Intn(5))
		for i := range svcs {
			svcs[i] = fmt.Sprintf("svc-%d", i)
		}
		history := make(map[string][]time.Duration)
		for i, n := 0, rng.Intn(300); i < n; i++ {
			svc := svcs[rng.Intn(len(svcs))]
			var lat time.Duration
			switch rng.Intn(4) {
			case 0:
				lat = 0
			case 1:
				lat = time.Duration(1 + rng.Intn(4)) // heavy ties
			case 2:
				lat = math.MaxInt64 - time.Duration(rng.Intn(3))
			default:
				lat = time.Duration(rng.Int63n(1 << 40))
			}
			history[svc] = append(history[svc], lat)
			r.RecordCompletion(r.Stats(svc), lat)
			switch rng.Intn(40) {
			case 0:
				r.fold()
			case 1:
				if got, want := r.SummarizeService(svc), refSummary(history[svc]); got != want {
					t.Fatalf("trial %d: mid-stream %s summary %+v != full sort %+v", trial, svc, got, want)
				}
			}
		}
		r.fold()
		for _, svc := range svcs {
			s := r.Stats(svc)
			vals, cum := rle(history[svc])
			if !slices.Equal(s.vals, vals) || !slices.Equal(s.cum, cum) {
				t.Fatalf("trial %d: %s run\nvals %v cum %v\nwant %v cum %v", trial, svc, s.vals, s.cum, vals, cum)
			}
		}
	}
}

// TestPendingBufferIsBounded checks that the shared buffer folds itself
// when it fills, so unfolded samples never exceed pendingCap, and that the
// fold loses nothing.
func TestPendingBufferIsBounded(t *testing.T) {
	r := NewRecorder()
	a, b := r.Stats("a"), r.Stats("b")
	for i := 0; i < 2*pendingCap+5; i++ {
		r.RecordCompletion(a, time.Duration(i%7))
		r.RecordCompletion(b, time.Duration(i%11))
		if len(r.pending) >= pendingCap {
			t.Fatalf("after %d recordings %d samples pending, want < %d", 2*i+2, len(r.pending), pendingCap)
		}
	}
	if got := a.count() + b.count() + len(r.pending); got != 4*pendingCap+10 {
		t.Errorf("%d samples folded or pending, want %d", got, 4*pendingCap+10)
	}
	if len(a.vals) != 7 || len(b.vals) != 11 {
		t.Errorf("distinct runs of %d and %d values, want 7 and 11", len(a.vals), len(b.vals))
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
