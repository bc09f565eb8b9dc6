// Package metrics collects the user-perceived performance measurements the
// paper reports: average response times, request failure percentages broken
// down by class (removal vs connection failures), availability, and
// time-series samples for plotting.
package metrics

import (
	"fmt"
	"math"
	"slices"
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
type Recorder struct {
	services map[string]*ServiceStats
	order    []string
	hist     *stats.Histogram

	// allSorted caches the cross-service sorted latency slice for Summarize;
	// it is valid while it holds exactly as many samples as have been
	// recorded (latencies are append-only, so a length match means clean).
	// Refreshes are incremental: each service tracks how many of its samples
	// were already merged (allTaken), so a refresh sorts and merges only the
	// newly-appended suffix instead of re-sorting everything.
	allSorted []time.Duration

	// svcScratch is Services' reusable result buffer — valid until the next
	// Services call.
	svcScratch []*ServiceStats

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

	latencies []time.Duration
	totalLat  time.Duration

	// sorted is a reused scratch copy of latencies kept in ascending order;
	// like Recorder.allSorted it is clean exactly when the lengths match, so
	// repeated percentile/summary calls between recordings cost nothing.
	sorted []time.Duration

	// allTaken counts how many of this service's latencies the Recorder has
	// already merged into its cross-service allSorted cache.
	allTaken int

	// mergeBuf is the scratch for this service's incremental sorted merges.
	mergeBuf []time.Duration
}

// sortedLatencies returns the service's latencies in ascending order. The
// scratch copy is maintained incrementally: only samples appended since the
// last call are sorted, then merged into the existing run — O(new·log new +
// shifted) instead of a full O(n log n) re-sort per refresh.
func (s *ServiceStats) sortedLatencies() []time.Duration {
	if have := len(s.sorted); have != len(s.latencies) {
		s.sorted = append(s.sorted, s.latencies[have:]...)
		s.mergeBuf = mergeSortedSuffix(s.sorted, have, s.mergeBuf)
	}
	return s.sorted
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
		if len(r.allSorted) != samples {
			// Gather only the samples recorded since the last refresh (in
			// deterministic first-seen service order), sort that suffix, and
			// merge it into the existing sorted run.
			have := len(r.allSorted)
			r.allSorted = slices.Grow(r.allSorted, samples-have)
			for _, name := range r.order {
				s := r.services[name]
				if s.allTaken < len(s.latencies) {
					r.allSorted = append(r.allSorted, s.latencies[s.allTaken:]...)
					s.allTaken = len(s.latencies)
				}
			}
			r.mergeBuf = mergeSortedSuffix(r.allSorted, have, r.mergeBuf)
		}
		all := r.allSorted
		sum.MeanLatency = total / time.Duration(len(all))
		sum.P50Latency = percentile(all, 0.50)
		sum.P95Latency = percentile(all, 0.95)
		sum.P99Latency = percentile(all, 0.99)
		sum.MaxLatency = all[len(all)-1]
	}
	return sum
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
		lat := s.sortedLatencies()
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
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
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
