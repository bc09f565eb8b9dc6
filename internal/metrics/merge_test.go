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

// checkRun fails the test unless s's run holds exactly the distinct values
// of samples with their cumulative counts, as rle computes them.
func checkRun(t *testing.T, label string, s *ServiceStats, samples []time.Duration) {
	t.Helper()
	vals, cum := rle(samples)
	want := make([]point, len(vals))
	for i := range vals {
		want[i] = point{v: vals[i], cum: cum[i]}
	}
	if !slices.Equal(s.vals, want) {
		t.Fatalf("%s: %s run\n%v\nwant %v", label, s.Name, s.vals, want)
	}
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
			checkRun(t, fmt.Sprintf("trial %d", trial), r.Stats(svc), history[svc])
		}
	}
}

// TestFoldCountsGrowForNewCells folds samples of services first seen after
// the previous fold: the dense per-cell counts must grow to cover them and
// be all zero again after every fold, and every run must match the
// run-length encoding of a direct sort of its samples.
func TestFoldCountsGrowForNewCells(t *testing.T) {
	r := NewRecorder()
	history := map[*ServiceStats][]time.Duration{}
	record := func(s *ServiceStats, lat time.Duration) {
		history[s] = append(history[s], lat)
		r.RecordCompletion(s, lat)
	}
	var cells []*ServiceStats
	for round := 0; round < 6; round++ {
		// Each round adds services the previous folds never saw, and
		// records into them and into every earlier one; odd rounds leave
		// the earliest service out, so its count must stay zero.
		for k := 0; k <= round; k++ {
			cells = append(cells, r.Stats(fmt.Sprintf("svc-%d-%d", round, k)))
		}
		for i, s := range cells {
			if round%2 == 1 && i == 0 {
				continue
			}
			for k := 0; k < 3+i%4; k++ {
				record(s, time.Duration((i*7+k*3+round)%5))
			}
		}
		r.fold()
		if len(r.counts) < len(cells) {
			t.Fatalf("round %d: %d counts for %d cells", round, len(r.counts), len(cells))
		}
		for c, n := range r.counts {
			if n != 0 {
				t.Fatalf("round %d: cell %d count %d after the fold, want 0", round, c, n)
			}
		}
		for _, s := range cells {
			checkRun(t, fmt.Sprintf("round %d", round), s, history[s])
		}
	}
}

// TestPendingBufferIsBounded checks that the shared buffer folds itself
// when it fills, so unfolded samples never exceed pendingCap, and that the
// fold loses nothing. A second recorder moves its traffic from service to
// service across folds — all of it on one, then on a few, then spread over
// all of them, with summaries folding early now and then — and its buffer's
// capacity must stay within a fixed multiple of pendingCap throughout.
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

	rng := rand.New(rand.NewSource(9))
	r = NewRecorder()
	cells := make([]*ServiceStats, 64)
	for i := range cells {
		cells[i] = r.Stats(fmt.Sprintf("svc-%02d", i))
	}
	recorded := 0
	for phase := 0; phase < 40; phase++ {
		var hot []*ServiceStats
		switch phase % 3 {
		case 0:
			hot = cells[rng.Intn(len(cells)):][:1]
		case 1:
			for k := 1 + rng.Intn(4); k > 0; k-- {
				hot = append(hot, cells[rng.Intn(len(cells))])
			}
		default:
			hot = cells
		}
		for i, n := 0, pendingCap/2+rng.Intn(2*pendingCap); i < n; i++ {
			r.RecordCompletion(hot[rng.Intn(len(hot))], time.Duration(rng.Intn(1000)))
			recorded++
			if rng.Intn(20000) == 0 {
				r.Summarize()
			}
			if len(r.pending) >= pendingCap || cap(r.pending) > 2*pendingCap {
				t.Fatalf("phase %d: %d samples pending in a buffer of %d, want < %d in at most %d",
					phase, len(r.pending), cap(r.pending), pendingCap, 2*pendingCap)
			}
		}
	}
	folded := len(r.pending)
	for _, s := range cells {
		folded += s.count()
	}
	if folded != recorded {
		t.Errorf("%d samples folded or pending, want %d", folded, recorded)
	}
}

// TestIncrementalSummariesMatchFullSort records into 50 services over
// interleaved rounds — with heavy ties, zero latencies, single-sample
// services joining mid-stream and per-service summaries read between
// recordings, so some runs are sorted early and grow later — and checks
// every summary against nearest-rank percentiles of a from-scratch sort of
// the same samples, and every run against its run-length encoding.
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
			checkRun(t, fmt.Sprintf("round %d", round), inc.Stats(svc), history[svc])
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
