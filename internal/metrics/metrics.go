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
// Each service keeps its latencies as a run of distinct values in ascending
// order with cumulative counts: far fewer values than samples, and every
// nearest-rank percentile stays exact. New samples wait in one bounded
// buffer shared by all services and are folded into the runs when it fills
// and before any summary. Cross-service percentiles are selected over the
// per-service runs by rank, never by merging them into a second copy.
type Recorder struct {
	services map[string]*ServiceStats
	order    []string
	hist     *stats.Histogram

	// svcScratch is Services' reusable result buffer — valid until the next
	// Services call.
	svcScratch []*ServiceStats

	// runs is Summarize's scratch list of the services with samples.
	runs []*ServiceStats

	// pending holds the completions recorded since the last fold, at most
	// pendingCap of them.
	pending []sample
	// touched and groups are fold's scratch: the services with pending
	// samples, and the pending latencies grouped by service.
	touched []*ServiceStats
	groups  []time.Duration
}

// pendingCap bounds the shared buffer of unfolded samples (512 KiB).
const pendingCap = 1 << 15

// sample is one recorded completion waiting to be folded.
type sample struct {
	s   *ServiceStats
	lat time.Duration
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

	// vals holds the distinct folded latencies in ascending order, and
	// cum[i] the number of folded samples <= vals[i].
	vals []time.Duration
	cum  []int
	// npend and end are fold's group size and group end for this service.
	npend, end int
	totalLat   time.Duration
}

// fold moves the pending samples into their services' runs: it groups them
// by service, sorts each group and merges it, with counts, into the run.
func (r *Recorder) fold() {
	if len(r.pending) == 0 {
		return
	}
	r.touched = r.touched[:0]
	for _, p := range r.pending {
		if p.s.npend == 0 {
			r.touched = append(r.touched, p.s)
		}
		p.s.npend++
	}
	off := 0
	for _, s := range r.touched {
		s.end = off
		off += s.npend
	}
	groups := slices.Grow(r.groups[:0], len(r.pending))[:len(r.pending)]
	r.groups = groups
	for _, p := range r.pending {
		groups[p.s.end] = p.lat
		p.s.end++
	}
	for _, s := range r.touched {
		g := groups[s.end-s.npend : s.end]
		slices.Sort(g)
		s.merge(g)
		s.npend, s.end = 0, 0
	}
	r.pending = r.pending[:0]
}

// merge folds the ascending samples g into s's run, in place: it grows the
// run by the number of distinct values in g, merges from the back, then
// closes the gap the values already in the run leave. The run below g[0] is
// never touched.
func (s *ServiceStats) merge(g []time.Duration) {
	distinct := 1
	for j := 1; j < len(g); j++ {
		if g[j] != g[j-1] {
			distinct++
		}
	}
	n := len(s.vals)
	total := len(g)
	if n > 0 {
		total += s.cum[n-1]
	}
	s.vals = slices.Grow(s.vals, distinct)[:n+distinct]
	s.cum = slices.Grow(s.cum, distinct)[:n+distinct]
	vals, cum := s.vals, s.cum
	// Walking down, each placed value's cumulative count is the running
	// total, which then drops by the value's own count. Position k never
	// falls below i, so every old entry is read before it is overwritten.
	i, k := n-1, n+distinct-1
	for j := len(g) - 1; j >= 0; k-- {
		v, c := g[j], 0
		for ; j >= 0 && g[j] == v; j-- {
			c++
		}
		for ; i >= 0 && vals[i] >= v; i-- {
			own := cum[i]
			if i > 0 {
				own -= cum[i-1]
			}
			if vals[i] == v {
				c += own
				i--
				break
			}
			vals[k], cum[k] = vals[i], total
			total -= own
			k--
		}
		vals[k], cum[k] = v, total
		total -= c
	}
	// The merged values start at k+1 and the untouched prefix ends at i+1;
	// each value g shared with the run widened the gap between them by one.
	if gap := k - i; gap > 0 {
		copy(vals[i+1:], vals[k+1:])
		copy(cum[i+1:], cum[k+1:])
		s.vals, s.cum = vals[:len(vals)-gap], cum[:len(cum)-gap]
	}
}

// at returns the value of 0-based rank k among s's folded samples: the
// first distinct value whose cumulative count exceeds k.
func (s *ServiceStats) at(k int) time.Duration {
	return s.vals[sort.Search(len(s.cum), func(i int) bool { return s.cum[i] > k })]
}

// count returns the number of folded samples.
func (s *ServiceStats) count() int {
	if len(s.cum) == 0 {
		return 0
	}
	return s.cum[len(s.cum)-1]
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
	s.totalLat += latency
	r.hist.Observe(latency)
	r.pending = append(r.pending, sample{s, latency})
	if len(r.pending) == pendingCap {
		r.fold()
	}
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

// Reserve pre-sizes the recorder for a service expected to complete about n
// more requests: the shared buffer for min(n, its bound) more samples and
// the service's run for n more distinct latencies, so recording them does
// not grow either. It never shrinks and is safe to call at any time.
func (r *Recorder) Reserve(service string, n int) {
	s := r.Stats(service)
	s.vals = slices.Grow(s.vals, n)
	s.cum = slices.Grow(s.cum, n)
	r.pending = slices.Grow(r.pending, min(n, pendingCap-len(r.pending)))
	r.groups = slices.Grow(r.groups[:0], cap(r.pending))
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
	r.fold()
	var sum Summary
	var total time.Duration
	samples := 0
	for _, s := range r.services {
		sum.Completed += s.Completed
		sum.RemovalFailures += s.RemovalFailures
		sum.ConnectionFailures += s.ConnectionFailures
		samples += s.count()
		total += s.totalLat
	}
	sum.Requests = sum.Completed + sum.RemovalFailures + sum.ConnectionFailures
	if samples > 0 {
		r.runs = r.runs[:0]
		lo, hi := time.Duration(math.MaxInt64), time.Duration(math.MinInt64)
		for _, name := range r.order {
			s := r.services[name]
			if len(s.vals) == 0 {
				continue
			}
			r.runs = append(r.runs, s)
			lo = min(lo, s.vals[0])
			hi = max(hi, s.vals[len(s.vals)-1])
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
// services' runs, every sample of which lies in [lo, hi]. It bisects on the
// value: the answer is the least v with more than k samples <= v, which is
// always a sample, so the result equals sorting the union and indexing it.
func selectRank(runs []*ServiceStats, k int, lo, hi time.Duration) time.Duration {
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

// countAtMost counts the samples <= v across the services' runs: in each,
// the cumulative count just below the first value above v.
func countAtMost(runs []*ServiceStats, v time.Duration) int {
	n := 0
	for _, s := range runs {
		if i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > v }); i > 0 {
			n += s.cum[i-1]
		}
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
	r.fold()
	if n := s.count(); n > 0 {
		sum.MeanLatency = s.totalLat / time.Duration(n)
		sum.P50Latency = s.at(nearestRank(0.50, n))
		sum.P95Latency = s.at(nearestRank(0.95, n))
		sum.P99Latency = s.at(nearestRank(0.99, n))
		sum.MaxLatency = s.vals[len(s.vals)-1]
	}
	return sum
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
