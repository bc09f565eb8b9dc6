package metrics

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hyscale/internal/stats"
	"hyscale/internal/workload"
)

func TestRecordAndSummarize(t *testing.T) {
	r := NewRecorder()
	r.RecordCompletion(r.Stats("a"), 100*time.Millisecond)
	r.RecordCompletion(r.Stats("a"), 300*time.Millisecond)
	r.RecordFailure(r.Stats("a"), workload.FailureRemoval)
	r.RecordFailure(r.Stats("b"), workload.FailureConnection)

	s := r.Summarize()
	if s.Requests != 4 || s.Completed != 2 {
		t.Fatalf("requests=%d completed=%d, want 4/2", s.Requests, s.Completed)
	}
	if s.RemovalFailures != 1 || s.ConnectionFailures != 1 {
		t.Fatalf("failures = %d/%d, want 1/1", s.RemovalFailures, s.ConnectionFailures)
	}
	if s.MeanLatency != 200*time.Millisecond {
		t.Errorf("mean = %v, want 200ms", s.MeanLatency)
	}
	if s.FailedPercent() != 50 {
		t.Errorf("FailedPercent = %v, want 50", s.FailedPercent())
	}
	if s.RemovalFailedPercent() != 25 || s.ConnectionFailedPercent() != 25 {
		t.Error("class percents wrong")
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewRecorder().Summarize()
	if s.Requests != 0 || s.FailedPercent() != 0 || s.MeanLatency != 0 {
		t.Error("empty recorder should summarize to zeros")
	}
}

func TestPercentiles(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.RecordCompletion(r.Stats("a"), time.Duration(i)*time.Millisecond)
	}
	s := r.Summarize()
	if s.P50Latency != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", s.P50Latency)
	}
	if s.P95Latency != 95*time.Millisecond {
		t.Errorf("p95 = %v, want 95ms", s.P95Latency)
	}
	if s.P99Latency != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", s.P99Latency)
	}
	if s.MaxLatency != 100*time.Millisecond {
		t.Errorf("max = %v, want 100ms", s.MaxLatency)
	}
}

func TestSummarizeService(t *testing.T) {
	r := NewRecorder()
	r.RecordCompletion(r.Stats("a"), 10*time.Millisecond)
	r.RecordCompletion(r.Stats("b"), 90*time.Millisecond)
	r.RecordFailure(r.Stats("b"), workload.FailureConnection)

	sa := r.SummarizeService("a")
	if sa.Requests != 1 || sa.MeanLatency != 10*time.Millisecond {
		t.Errorf("service a summary wrong: %+v", sa)
	}
	sb := r.SummarizeService("b")
	if sb.Requests != 2 || sb.ConnectionFailures != 1 {
		t.Errorf("service b summary wrong: %+v", sb)
	}
	if z := r.SummarizeService("nope"); z.Requests != 0 {
		t.Error("unknown service should be zero")
	}
}

func TestServicesOrderedFirstSeen(t *testing.T) {
	r := NewRecorder()
	r.RecordCompletion(r.Stats("z"), time.Millisecond)
	r.RecordCompletion(r.Stats("a"), time.Millisecond)
	r.RecordCompletion(r.Stats("z"), time.Millisecond)
	ss := r.Services()
	if len(ss) != 2 || ss[0].Name != "z" || ss[1].Name != "a" {
		t.Errorf("order wrong: %v", ss)
	}
}

func TestSummaryString(t *testing.T) {
	r := NewRecorder()
	r.RecordCompletion(r.Stats("a"), 123*time.Millisecond)
	s := r.Summarize().String()
	if !strings.Contains(s, "requests=1") || !strings.Contains(s, "mean=123ms") {
		t.Errorf("String = %q", s)
	}
}

func TestUnknownFailureClassCountsAsConnection(t *testing.T) {
	r := NewRecorder()
	r.RecordFailure(r.Stats("a"), workload.FailureNone)
	if got := r.Summarize().ConnectionFailures; got != 1 {
		t.Errorf("ConnectionFailures = %d, want 1", got)
	}
}

func TestSummaryCacheInvalidatesOnNewSamples(t *testing.T) {
	r := NewRecorder()
	r.RecordCompletion(r.Stats("a"), 300*time.Millisecond)
	r.RecordCompletion(r.Stats("a"), 100*time.Millisecond)
	if got := r.Summarize().P50Latency; got != 100*time.Millisecond {
		t.Fatalf("p50 = %v, want 100ms", got)
	}
	// A summary between recordings must not freeze the sorted caches: new
	// samples (including a new max, and for a second service) have to land.
	r.RecordCompletion(r.Stats("a"), 500*time.Millisecond)
	r.RecordCompletion(r.Stats("b"), 700*time.Millisecond)
	s := r.Summarize()
	if s.MaxLatency != 700*time.Millisecond {
		t.Errorf("max = %v, want 700ms after cache refresh", s.MaxLatency)
	}
	if s.P50Latency != 300*time.Millisecond {
		t.Errorf("p50 = %v, want 300ms", s.P50Latency)
	}
	sa := r.SummarizeService("a")
	if sa.MaxLatency != 500*time.Millisecond || sa.P50Latency != 300*time.Millisecond {
		t.Errorf("service summary stale: %+v", sa)
	}
	// Repeated summaries without new samples stay stable.
	if again := r.SummarizeService("a"); again != sa {
		t.Errorf("repeated summary differs: %+v vs %+v", again, sa)
	}
}

// BenchmarkSummarize measures the repeated-summary path the monitor and HTTP
// API hit: many samples, periodic Summarize calls with only a few recordings
// in between. The runs stay sorted between calls, so a steady-state call
// is rank selection alone.
func BenchmarkSummarize(b *testing.B) {
	r := NewRecorder()
	for i := 0; i < 100000; i++ {
		r.RecordCompletion(r.Stats("svc"), time.Duration(i%997)*time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Summarize()
	}
}

// warmRecorder returns a recorder with 2,000 services whose runs hold
// room for every latency recordCycle produces, its shared buffer filled
// once, and one cycle of latencies.
func warmRecorder() (*Recorder, []*ServiceStats, []time.Duration) {
	r := NewRecorder()
	cells := make([]*ServiceStats, 2000)
	for i := range cells {
		name := fmt.Sprintf("svc-%04d", i)
		r.Reserve(name, 512)
		cells[i] = r.Stats(name)
	}
	rng := rand.New(rand.NewSource(1))
	lats := make([]time.Duration, 1<<12)
	for i := range lats {
		lats[i] = time.Duration(50+rng.Intn(60)) * time.Millisecond
	}
	for i := 0; i < pendingCap; i++ {
		r.RecordCompletion(cells[i%len(cells)], lats[i%len(lats)])
	}
	return r, cells, lats
}

// TestRecordCompletionAllocFree pins a warm recording, folds included, at
// zero allocations.
func TestRecordCompletionAllocFree(t *testing.T) {
	r, cells, lats := warmRecorder()
	i := 0
	if allocs := testing.AllocsPerRun(3*pendingCap, func() {
		r.RecordCompletion(cells[i%len(cells)], lats[i%len(lats)])
		i++
	}); allocs != 0 {
		t.Errorf("RecordCompletion allocates %.4f objects/call, want 0", allocs)
	}
}

// BenchmarkRecordCompletion measures the per-completion cost across 2,000
// services, the amortised fold of the shared buffer included.
func BenchmarkRecordCompletion(b *testing.B) {
	r, cells, lats := warmRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RecordCompletion(cells[i%len(cells)], lats[i%len(lats)])
	}
}

func TestLatencyHistogramTracksCompletions(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 1000; i++ {
		r.RecordCompletion(r.Stats("a"), time.Duration(i)*time.Millisecond)
	}
	h := r.LatencyHistogram()
	if h.Count() != 1000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	// Histogram p95 must approximate the exact recorder's p95 within the
	// bucket error (~10%).
	exact := r.Summarize().P95Latency
	est := h.Quantile(0.95)
	ratio := float64(est) / float64(exact)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("histogram p95 %v vs exact %v (ratio %.2f)", est, exact, ratio)
	}

	// The histogram is derived from the folded runs on read; it must equal
	// one fed every sample as it was recorded, bucket for bucket, read
	// mid-stream and again after more recordings and folds. The latencies
	// include zero, values below the first bucket and beyond the last, and
	// heavy ties, and a few too long or negative to pack into the shared
	// buffer.
	rng := rand.New(rand.NewSource(5))
	r = NewRecorder()
	ref := stats.DefaultLatencyHistogram()
	svcs := []string{"a", "b", "c"}
	for i := 0; i < 3*pendingCap; i++ {
		var lat time.Duration
		switch rng.Intn(7) {
		case 0:
			lat = 0
		case 6:
			if lat = time.Duration(rng.Int63()); rng.Intn(2) == 0 {
				lat = -lat
			}
		case 1:
			lat = time.Duration(rng.Intn(int(time.Millisecond))) // below min
		case 2:
			lat = 10*time.Minute + time.Duration(rng.Int63n(int64(time.Hour))) // beyond the last bucket
		case 3:
			lat = time.Duration(1+rng.Intn(3)) * 100 * time.Millisecond // ties
		default:
			lat = time.Duration(rng.Int63n(int64(time.Minute)))
		}
		r.RecordCompletion(r.Stats(svcs[rng.Intn(len(svcs))]), lat)
		ref.Observe(lat)
		if rng.Intn(20000) == 0 || i == 3*pendingCap-1 {
			h := r.LatencyHistogram()
			if h.Count() != ref.Count() || h.Mean() != ref.Mean() || h.Max() != ref.Max() {
				t.Fatalf("after %d samples: count/mean/max %d/%v/%v, per-sample %d/%v/%v",
					i+1, h.Count(), h.Mean(), h.Max(), ref.Count(), ref.Mean(), ref.Max())
			}
			if got, want := h.Buckets(), ref.Buckets(); !slices.Equal(got, want) {
				t.Fatalf("after %d samples: buckets %v, per-sample %v", i+1, got, want)
			}
			for _, q := range []float64{0.50, 0.95, 0.99} {
				if got, want := h.Quantile(q), ref.Quantile(q); got != want {
					t.Fatalf("after %d samples: p%v %v, per-sample %v", i+1, 100*q, got, want)
				}
			}
		}
	}
}
