// Package metrics collects the user-perceived performance measurements the
// paper reports: average response times, request failure percentages broken
// down by class (removal vs connection failures) and availability.
//
// A completion costs two counter updates and one append to a shared
// buffer; sorting, run merging and the export histogram all happen later,
// in bulk (see Recorder).
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
// experiment tables report); the log-bucket histogram long-lived
// deployments export is derived from the same samples on read (see
// LatencyHistogram and the /v1/latency endpoint in internal/httpapi).
//
// Each service keeps its latencies as a run of distinct values in ascending
// order with cumulative counts: far fewer values than samples, and every
// nearest-rank percentile stays exact. New samples wait in one bounded
// buffer shared by all services, each packed with its service's index into
// 8 bytes, and are folded into the runs when it fills and before any
// summary. Cross-service percentiles are selected over the per-service runs
// by rank, never by merging them into a second copy.
type Recorder struct {
	services map[string]*ServiceStats
	// cells holds the services in first-seen order; a cell's index is its
	// position.
	cells []*ServiceStats

	// svcScratch is Services' reusable result buffer — valid until the next
	// Services call.
	svcScratch []*ServiceStats

	// runs is Summarize's scratch list of the services with samples.
	runs []*ServiceStats

	// pending holds the completions recorded since the last fold, at most
	// pendingCap of them, each a pack of its cell index and latency.
	pending []time.Duration
	// counts, touched and groups are fold's scratch: per cell index, the
	// cell's pending sample count and then its group's write position (all
	// zero between folds); the cells with pending samples; and the pending
	// latencies grouped by cell.
	counts  []int32
	touched []int32
	groups  []time.Duration
}

const (
	// pendingCap bounds the shared buffer of unfolded samples (256 KiB, and
	// as much again for fold's grouping scratch).
	pendingCap = 1 << 15
	// A pack is cell<<latBits | latency: a latency of up to about 4.9
	// hours under a cell index small enough to keep the pack non-negative.
	// A sample that does not fit, a negative or longer latency or a cell
	// index from maxCells on, merges straight into its run instead.
	latBits  = 44
	latMask  = 1<<latBits - 1
	maxCells = 1 << (63 - latBits)
)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{services: make(map[string]*ServiceStats)}
}

// LatencyHistogram returns the log-bucket histogram (stats.
// DefaultLatencyHistogram) of every completion recorded so far across all
// services. It is built on each call from the folded runs, each distinct
// latency weighted by its count, so it equals a histogram that observed
// every sample as it was recorded; the result is the caller's.
func (r *Recorder) LatencyHistogram() *stats.Histogram {
	r.fold()
	h := stats.DefaultLatencyHistogram()
	for _, s := range r.cells {
		prev := 0
		for _, p := range s.vals {
			h.ObserveN(p.v, uint64(p.cum-prev))
			prev = p.cum
		}
	}
	return h
}

// ServiceStats holds the outcome counters and latency samples for one
// microservice.
type ServiceStats struct {
	Name string

	Completed          uint64
	RemovalFailures    uint64
	ConnectionFailures uint64

	// vals holds the distinct folded latencies in ascending order, each
	// with the number of folded samples <= it.
	vals []point
	// cell is the service's index in Recorder.cells.
	cell     int
	totalLat time.Duration
}

// point is one distinct folded latency v and the cumulative count cum of
// folded samples <= v.
type point struct {
	v   time.Duration
	cum int
}

// fold moves the pending samples into their services' runs: it groups them
// by cell, counting them into the dense per-cell scratch so no cell is
// touched until its group is merged, sorts each group and merges it, with
// counts, into the run.
func (r *Recorder) fold() {
	if len(r.pending) == 0 {
		return
	}
	if len(r.counts) < len(r.cells) {
		r.counts = append(r.counts, make([]int32, len(r.cells)-len(r.counts))...)
	}
	counts := r.counts
	r.touched = r.touched[:0]
	for _, p := range r.pending {
		c := p >> latBits
		if counts[c] == 0 {
			r.touched = append(r.touched, int32(c))
		}
		counts[c]++
	}
	// Each cell's count becomes its group's start: groups are laid out in
	// touched order.
	off := int32(0)
	for _, c := range r.touched {
		off, counts[c] = off+counts[c], off
	}
	groups := slices.Grow(r.groups[:0], len(r.pending))[:len(r.pending)]
	r.groups = groups
	for _, p := range r.pending {
		c := p >> latBits
		groups[counts[c]] = p & latMask
		counts[c]++
	}
	// Each cell's position is now its group's end, the next group's start.
	start := int32(0)
	for _, c := range r.touched {
		end := counts[c]
		g := groups[start:end]
		slices.Sort(g)
		r.cells[c].merge(g)
		counts[c], start = 0, end
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
		total += s.vals[n-1].cum
	}
	s.vals = slices.Grow(s.vals, distinct)[:n+distinct]
	run := s.vals
	// Walking down, each placed value's cumulative count is the running
	// total, which then drops by the value's own count. Position k never
	// falls below i, so every old entry is read before it is overwritten.
	i, k := n-1, n+distinct-1
	for j := len(g) - 1; j >= 0; k-- {
		v, c := g[j], 0
		for ; j >= 0 && g[j] == v; j-- {
			c++
		}
		for ; i >= 0 && run[i].v >= v; i-- {
			own := run[i].cum
			if i > 0 {
				own -= run[i-1].cum
			}
			if run[i].v == v {
				c += own
				i--
				break
			}
			run[k] = point{run[i].v, total}
			total -= own
			k--
		}
		run[k] = point{v, total}
		total -= c
	}
	// The merged values start at k+1 and the untouched prefix ends at i+1;
	// each value g shared with the run widened the gap between them by one.
	if gap := k - i; gap > 0 {
		copy(run[i+1:], run[k+1:])
		s.vals = run[:len(run)-gap]
	}
}

// at returns the value of 0-based rank k among s's folded samples: the
// first distinct value whose cumulative count exceeds k.
func (s *ServiceStats) at(k int) time.Duration {
	return s.vals[sort.Search(len(s.vals), func(i int) bool { return s.vals[i].cum > k })].v
}

// count returns the number of folded samples.
func (s *ServiceStats) count() int {
	if len(s.vals) == 0 {
		return 0
	}
	return s.vals[len(s.vals)-1].cum
}

// Stats returns the named service's stats cell, creating it on first use
// (which fixes the service's first-seen position). The pointer is stable for
// the recorder's lifetime, so a hot path resolves it once per service.
func (r *Recorder) Stats(name string) *ServiceStats {
	s, ok := r.services[name]
	if !ok {
		s = &ServiceStats{Name: name, cell: len(r.cells)}
		r.services[name] = s
		r.cells = append(r.cells, s)
	}
	return s
}

// RecordCompletion records a successful request of service s (a cell from
// Stats) with its response time.
func (r *Recorder) RecordCompletion(s *ServiceStats, latency time.Duration) {
	s.Completed++
	s.totalLat += latency
	if latency < 0 || latency > latMask || s.cell >= maxCells {
		one := [1]time.Duration{latency}
		s.merge(one[:])
		return
	}
	r.pending = append(r.pending, time.Duration(s.cell)<<latBits|latency)
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
	r.svcScratch = append(r.svcScratch[:0], r.cells...)
	return r.svcScratch
}

// Reserve pre-sizes the recorder for a service expected to complete about n
// more requests: the shared buffer for min(n, its bound) more samples and
// the service's run for n more distinct latencies, so recording them does
// not grow either. It never shrinks and is safe to call at any time.
func (r *Recorder) Reserve(service string, n int) {
	s := r.Stats(service)
	s.vals = slices.Grow(s.vals, n)
	r.pending = slices.Grow(r.pending, min(n, pendingCap-len(r.pending)))
	r.groups = slices.Grow(r.groups[:0], cap(r.pending))
}

// Counters returns the service's cumulative outcome counters and total
// completed-request latency, the values the observability layer samples
// each monitor period. A nil cell (a service with no recorded outcome)
// reads as zeros.
func (s *ServiceStats) Counters() (completed, removalFailed, connFailed uint64, totalLatency time.Duration) {
	if s == nil {
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
		for _, s := range r.cells {
			if len(s.vals) == 0 {
				continue
			}
			r.runs = append(r.runs, s)
			lo = min(lo, s.vals[0].v)
			hi = max(hi, s.vals[len(s.vals)-1].v)
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
		if i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i].v > v }); i > 0 {
			n += s.vals[i-1].cum
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
		sum.MaxLatency = s.vals[len(s.vals)-1].v
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
