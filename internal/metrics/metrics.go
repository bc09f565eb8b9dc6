// Package metrics collects the user-perceived performance measurements the
// paper reports: average response times, request failure percentages broken
// down by class (removal vs connection failures), availability, and
// time-series samples for plotting.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"hyscale/internal/stats"
	"hyscale/internal/workload"
)

// Recorder accumulates per-service request outcomes for one experiment run.
// It is not safe for concurrent use; the simulation is single-threaded.
//
// The recorder keeps every latency sample for exact percentiles (what the
// experiment tables report) and, in parallel, a constant-memory log-bucket
// histogram for long-lived deployments to export (see LatencyHistogram and
// the /v1/latency endpoint in internal/httpapi).
//
// Each sample is stored once, in its service's latency run, which summaries
// keep sorted in place. Cross-service percentiles are selected over the
// per-service runs by rank, never by merging them into a second copy.
type Recorder struct {
	services map[string]*ServiceStats
	order    []string
	hist     *stats.Histogram

	// svcScratch is Services' reusable result buffer — valid until the next
	// Services call.
	svcScratch []*ServiceStats

	// runs is Summarize's scratch list of the non-empty per-service runs.
	runs [][]time.Duration

	// mergeBuf is the shared scratch for incremental sorted merges.
	mergeBuf []time.Duration
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		services: make(map[string]*ServiceStats),
		hist:     stats.DefaultLatencyHistogram(),
	}
}

// LatencyHistogram returns the streaming latency histogram across all
// services.
func (r *Recorder) LatencyHistogram() *stats.Histogram { return r.hist }

// ServiceStats holds the outcome counters and latency samples for one
// microservice.
type ServiceStats struct {
	Name string

	Completed          uint64
	RemovalFailures    uint64
	ConnectionFailures uint64

	// latencies holds every completion's latency. Its first sortedN samples
	// are in ascending order; samples recorded since the last summary are
	// appended after them, unsorted. Nothing reads the samples in recording
	// order, so the run is sorted in place.
	latencies []time.Duration
	sortedN   int
	totalLat  time.Duration
}

// sortedLatencies returns s's latencies in ascending order. Only the
// samples recorded since the last call are sorted, then merged into the
// sorted run in place — O(new·log new + shifted) instead of a full
// O(n log n) re-sort per refresh, and repeated calls between recordings
// cost nothing.
func (r *Recorder) sortedLatencies(s *ServiceStats) []time.Duration {
	if s.sortedN != len(s.latencies) {
		r.mergeBuf = mergeSortedSuffix(s.latencies, s.sortedN, r.mergeBuf)
		s.sortedN = len(s.latencies)
	}
	return s.latencies
}

// mergeSortedSuffix sorts all[n:] and merges it into the already-sorted
// all[:n], in place, using (and returning) buf as scratch for the suffix.
func mergeSortedSuffix(all []time.Duration, n int, buf []time.Duration) []time.Duration {
	tail := all[n:]
	if len(tail) == 0 {
		return buf
	}
	slices.Sort(tail)
	if n == 0 || all[n-1] <= tail[0] {
		// Already in order — the common case when latencies trend upward.
		return buf
	}
	buf = append(buf[:0], tail...)
	// Backward two-pointer merge: stops as soon as the suffix is placed, so
	// the cost is proportional to how far new samples reach into the run.
	i, k := n-1, len(all)-1
	for j := len(buf) - 1; j >= 0; {
		if i >= 0 && all[i] > buf[j] {
			all[k] = all[i]
			i--
		} else {
			all[k] = buf[j]
			j--
		}
		k--
	}
	return buf
}

// Stats returns the named service's stats cell, creating it on first use
// (which fixes the service's first-seen position). The pointer is stable for
// the recorder's lifetime, so a hot path resolves it once per service.
func (r *Recorder) Stats(name string) *ServiceStats {
	s, ok := r.services[name]
	if !ok {
		s = &ServiceStats{Name: name}
		r.services[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// RecordCompletion records a successful request of service s (a cell from
// Stats) with its response time.
func (r *Recorder) RecordCompletion(s *ServiceStats, latency time.Duration) {
	s.Completed++
	s.latencies = append(s.latencies, latency)
	s.totalLat += latency
	r.hist.Observe(latency)
}

// RecordFailure records a failed request of service s (a cell from Stats)
// with its failure class.
func (r *Recorder) RecordFailure(s *ServiceStats, class workload.FailureClass) {
	switch class {
	case workload.FailureRemoval:
		s.RemovalFailures++
	default:
		s.ConnectionFailures++
	}
}

// Services returns the per-service stats in first-seen order. The returned
// slice is a reused scratch buffer, valid until the next Services call; copy
// it to keep it longer.
func (r *Recorder) Services() []*ServiceStats {
	r.svcScratch = r.svcScratch[:0]
	for _, name := range r.order {
		r.svcScratch = append(r.svcScratch, r.services[name])
	}
	return r.svcScratch
}

// Reserve pre-sizes the latency storage for a service expected to complete
// about n requests, so bulk injection does not grow the sample slices
// repeatedly. It never shrinks and is safe to call at any time.
func (r *Recorder) Reserve(service string, n int) {
	s := r.Stats(service)
	if extra := n - (cap(s.latencies) - len(s.latencies)); extra > 0 {
		grown := make([]time.Duration, len(s.latencies), cap(s.latencies)+extra)
		copy(grown, s.latencies)
		s.latencies = grown
	}
}

// ServiceCounters returns one service's cumulative outcome counters and
// total completed-request latency — the cheap O(1) accessors the
// observability layer samples each monitor period (unknown services return
// zeros).
func (r *Recorder) ServiceCounters(name string) (completed, removalFailed, connFailed uint64, totalLatency time.Duration) {
	s, ok := r.services[name]
	if !ok {
		return 0, 0, 0, 0
	}
	return s.Completed, s.RemovalFailures, s.ConnectionFailures, s.totalLat
}

// Summary is the cross-service aggregate the paper's figures report.
type Summary struct {
	Requests           uint64
	Completed          uint64
	RemovalFailures    uint64
	ConnectionFailures uint64

	MeanLatency time.Duration
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	MaxLatency  time.Duration
}

// FailedPercent returns the percentage of all requests that failed.
func (s Summary) FailedPercent() float64 {
	if s.Requests == 0 {
		return 0
	}
	return 100 * float64(s.RemovalFailures+s.ConnectionFailures) / float64(s.Requests)
}

// RemovalFailedPercent returns the percentage of requests that died to
// container removals.
func (s Summary) RemovalFailedPercent() float64 {
	if s.Requests == 0 {
		return 0
	}
	return 100 * float64(s.RemovalFailures) / float64(s.Requests)
}

// ConnectionFailedPercent returns the percentage of requests that failed at
// the microservice.
func (s Summary) ConnectionFailedPercent() float64 {
	if s.Requests == 0 {
		return 0
	}
	return 100 * float64(s.ConnectionFailures) / float64(s.Requests)
}

// String implements fmt.Stringer with the row format used in EXPERIMENTS.md.
func (s Summary) String() string {
	return fmt.Sprintf("requests=%d completed=%d failed=%.2f%% (removal=%.2f%% connection=%.2f%%) mean=%v p95=%v",
		s.Requests, s.Completed, s.FailedPercent(), s.RemovalFailedPercent(), s.ConnectionFailedPercent(),
		s.MeanLatency.Round(time.Millisecond), s.P95Latency.Round(time.Millisecond))
}

// Summarize aggregates all services into one Summary.
func (r *Recorder) Summarize() Summary {
	var sum Summary
	var total time.Duration
	samples := 0
	for _, s := range r.services {
		sum.Completed += s.Completed
		sum.RemovalFailures += s.RemovalFailures
		sum.ConnectionFailures += s.ConnectionFailures
		samples += len(s.latencies)
		total += s.totalLat
	}
	sum.Requests = sum.Completed + sum.RemovalFailures + sum.ConnectionFailures
	if samples > 0 {
		r.runs = r.runs[:0]
		lo, hi := time.Duration(math.MaxInt64), time.Duration(math.MinInt64)
		for _, name := range r.order {
			run := r.sortedLatencies(r.services[name])
			if len(run) == 0 {
				continue
			}
			r.runs = append(r.runs, run)
			lo = min(lo, run[0])
			hi = max(hi, run[len(run)-1])
		}
		sum.MeanLatency = total / time.Duration(samples)
		sum.P50Latency = selectRank(r.runs, nearestRank(0.50, samples), lo, hi)
		sum.P95Latency = selectRank(r.runs, nearestRank(0.95, samples), lo, hi)
		sum.P99Latency = selectRank(r.runs, nearestRank(0.99, samples), lo, hi)
		sum.MaxLatency = hi
	}
	return sum
}

// selectRank returns the sample of 0-based rank k in the union of the
// ascending runs, every sample of which lies in [lo, hi]. It bisects on the
// value: the answer is the least v with more than k samples <= v, which is
// always a sample, so the result equals sorting the union and indexing it.
func selectRank(runs [][]time.Duration, k int, lo, hi time.Duration) time.Duration {
	for lo < hi {
		// The unsigned halving cannot overflow, whatever the signs.
		mid := lo + time.Duration(uint64(hi-lo)/2)
		if countAtMost(runs, mid) > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// countAtMost counts the samples <= v across the ascending runs.
func countAtMost(runs [][]time.Duration, v time.Duration) int {
	n := 0
	for _, run := range runs {
		n += sort.Search(len(run), func(i int) bool { return run[i] > v })
	}
	return n
}

// SummarizeService aggregates a single service, returning a zero Summary for
// unknown names.
func (r *Recorder) SummarizeService(name string) Summary {
	s, ok := r.services[name]
	if !ok {
		return Summary{}
	}
	var sum Summary
	sum.Completed = s.Completed
	sum.RemovalFailures = s.RemovalFailures
	sum.ConnectionFailures = s.ConnectionFailures
	sum.Requests = sum.Completed + sum.RemovalFailures + sum.ConnectionFailures
	if len(s.latencies) > 0 {
		lat := r.sortedLatencies(s)
		sum.MeanLatency = s.totalLat / time.Duration(len(lat))
		sum.P50Latency = percentile(lat, 0.50)
		sum.P95Latency = percentile(lat, 0.95)
		sum.P99Latency = percentile(lat, 0.99)
		sum.MaxLatency = lat[len(lat)-1]
	}
	return sum
}

// percentile returns the p-quantile (0..1) of a sorted slice using the
// nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(p, len(sorted))]
}

// nearestRank is the 0-based nearest-rank index of the p-quantile (0..1) of
// n > 0 sorted samples.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}

// TimeSeries is an append-only series of (time, value) samples used to
// reproduce the paper's trace plots (e.g. Fig. 9).
type TimeSeries struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// Append adds a sample.
func (t *TimeSeries) Append(at time.Duration, v float64) {
	t.Times = append(t.Times, at)
	t.Values = append(t.Values, v)
}

// Len returns the number of samples.
func (t *TimeSeries) Len() int { return len(t.Values) }

// Mean returns the average of all values, or 0 when empty.
func (t *TimeSeries) Mean() float64 {
	if len(t.Values) == 0 {
		return 0
	}
	var s float64
	for _, v := range t.Values {
		s += v
	}
	return s / float64(len(t.Values))
}

// Max returns the maximum value, or 0 when empty.
func (t *TimeSeries) Max() float64 {
	var m float64
	for i, v := range t.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}
