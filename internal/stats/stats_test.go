package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, time.Second, 1.1); err == nil {
		t.Error("zero min accepted")
	}
	if _, err := NewHistogram(time.Second, time.Second, 1.1); err == nil {
		t.Error("max == min accepted")
	}
	if _, err := NewHistogram(time.Millisecond, time.Second, 1.0); err == nil {
		t.Error("growth 1.0 accepted")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := DefaultLatencyHistogram()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram not zero")
	}
	h.Observe(100 * time.Millisecond)
	h.Observe(200 * time.Millisecond)
	h.Observe(300 * time.Millisecond)
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 200*time.Millisecond {
		t.Errorf("Mean = %v, want exactly 200ms", h.Mean())
	}
	if h.Max() != 300*time.Millisecond {
		t.Errorf("Max = %v", h.Max())
	}
	if s := h.String(); !strings.Contains(s, "n=3") {
		t.Errorf("String = %q", s)
	}
}

// TestQuantileAccuracy checks the bounded-relative-error guarantee against
// exact percentiles on random data.
func TestQuantileAccuracy(t *testing.T) {
	h := DefaultLatencyHistogram()
	rng := rand.New(rand.NewSource(1))
	var samples []time.Duration
	for i := 0; i < 20000; i++ {
		// Log-uniform between 2ms and 30s.
		d := time.Duration(float64(2*time.Millisecond) * math.Exp(rng.Float64()*math.Log(15000)))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		est := h.Quantile(q)
		relErr := math.Abs(float64(est)-float64(exact)) / float64(exact)
		if relErr > 0.12 { // growth 1.1 plus rank rounding
			t.Errorf("q=%.2f: est %v vs exact %v (rel err %.3f)", q, est, exact, relErr)
		}
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h, err := NewHistogram(10*time.Millisecond, time.Second, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(time.Millisecond) // under
	h.Observe(time.Minute)      // over
	h.Observe(100 * time.Millisecond)

	if got := h.Quantile(0.01); got != 10*time.Millisecond {
		t.Errorf("under-range quantile = %v, want min", got)
	}
	if got := h.Quantile(1.0); got != time.Minute {
		t.Errorf("over-range quantile = %v, want observed max", got)
	}
	buckets := h.Buckets()
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3 (under + one cell + over)", len(buckets))
	}
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	if total != h.Count() {
		t.Errorf("bucket counts sum to %d, want %d", total, h.Count())
	}
}

func TestQuantileClamps(t *testing.T) {
	h := DefaultLatencyHistogram()
	h.Observe(50 * time.Millisecond)
	if h.Quantile(-1) == 0 || h.Quantile(2) == 0 {
		t.Error("out-of-range q mishandled")
	}
}

// Property: quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		h := DefaultLatencyHistogram()
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(20 * time.Second))))
		}
		prev := time.Duration(0)
		for q := 0.05; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
