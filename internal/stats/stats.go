// Package stats provides streaming statistics: a log-bucketed latency
// histogram with bounded relative error and O(1) memory, online
// mean/variance (Welford), and exponentially weighted moving averages.
// The exact-percentile recorder in internal/metrics stores every sample —
// fine for experiments; the histogram here is what a long-lived deployment
// (cmd/hyscale-server) exports without unbounded growth.
package stats

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Histogram is a log-bucketed duration histogram: bucket i covers
// [min·growth^i, min·growth^(i+1)), giving a constant relative error of
// (growth−1) on quantile estimates. The zero value is not usable; call
// NewHistogram.
type Histogram struct {
	min    time.Duration
	growth float64
	// logGrowth is math.Log(growth), taken once: Observe divides by it on
	// every sample.
	logGrowth float64
	counts    []uint64
	under     uint64 // samples below min
	over      uint64 // samples beyond the last bucket
	total     uint64
	sum       time.Duration
	max       time.Duration
}

// NewHistogram builds a histogram covering [min, max] with the given
// per-bucket growth factor (e.g. 1.1 ⇒ ≤10 % quantile error).
func NewHistogram(min, max time.Duration, growth float64) (*Histogram, error) {
	switch {
	case min <= 0:
		return nil, fmt.Errorf("stats: histogram min must be positive, got %v", min)
	case max <= min:
		return nil, fmt.Errorf("stats: histogram max %v must exceed min %v", max, min)
	case growth <= 1:
		return nil, fmt.Errorf("stats: growth must be > 1, got %v", growth)
	}
	logGrowth := math.Log(growth)
	n := int(math.Ceil(math.Log(float64(max)/float64(min))/logGrowth)) + 1
	return &Histogram{min: min, growth: growth, logGrowth: logGrowth, counts: make([]uint64, n)}, nil
}

// DefaultLatencyHistogram covers 1 ms .. 10 min at ≤10 % error — right for
// request latencies in this system.
func DefaultLatencyHistogram() *Histogram {
	h, err := NewHistogram(time.Millisecond, 10*time.Minute, 1.1)
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if d < h.min {
		h.under++
		return
	}
	i := int(math.Log(float64(d)/float64(h.min)) / h.logGrowth)
	if i >= len(h.counts) {
		h.over++
		return
	}
	h.counts[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the exact mean of all observations (tracked outside the
// buckets, so it carries no bucketing error).
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile estimates the q-quantile (0..1) with relative error bounded by
// the growth factor. Samples below min report min; beyond the range report
// the exact observed max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank <= h.under {
		return h.min
	}
	cum := h.under
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			// Upper edge of bucket i.
			return time.Duration(float64(h.min) * math.Pow(h.growth, float64(i+1)))
		}
	}
	return h.max
}

// Buckets returns non-empty buckets as (upperBound, count) pairs, for
// exporting in Prometheus-style expositions.
func (h *Histogram) Buckets() []Bucket {
	var out []Bucket
	if h.under > 0 {
		out = append(out, Bucket{UpperBound: h.min, Count: h.under})
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		ub := time.Duration(float64(h.min) * math.Pow(h.growth, float64(i+1)))
		out = append(out, Bucket{UpperBound: ub, Count: c})
	}
	if h.over > 0 {
		out = append(out, Bucket{UpperBound: h.max, Count: h.over})
	}
	return out
}

// Bucket is one histogram cell.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper latency edge.
	UpperBound time.Duration
	// Count is the number of samples in the cell.
	Count uint64
}

// String renders a compact summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.total, h.Mean().Round(time.Millisecond),
		h.Quantile(0.50).Round(time.Millisecond),
		h.Quantile(0.95).Round(time.Millisecond),
		h.Quantile(0.99).Round(time.Millisecond),
		h.max.Round(time.Millisecond))
	return b.String()
}

// Welford tracks online mean and variance without storing samples.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Observe records one value.
func (w *Welford) Observe(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// EWMA is an exponentially weighted moving average: each Observe folds the
// new value in with weight alpha. The zero value with a zero alpha is not
// useful; construct with NewEWMA.
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA builds an EWMA with smoothing factor alpha in (0, 1]; larger
// alpha follows the signal more closely.
func NewEWMA(alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("stats: EWMA alpha must be in (0,1], got %v", alpha)
	}
	return &EWMA{alpha: alpha}, nil
}

// Observe folds in a new value; the first observation seeds the average.
func (e *EWMA) Observe(x float64) {
	if !e.init {
		e.value = x
		e.init = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }
