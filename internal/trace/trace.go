// Package trace handles the GWA-T-12 Bitbrains workload used in §VI-B. It
// provides (a) a parser for the real dataset's per-VM CSV files, so the
// experiments can replay the genuine `Rnd` trace when a copy is available,
// and (b) a seeded synthetic generator that reproduces the trace's
// documented shape — 500 VM usage series with wave-like mixed CPU+memory
// load and bursty spikes (Fig. 9) — for offline runs. The substitution is
// recorded in DESIGN.md: the paper itself notes the trace "exhibits the same
// behaviour as the low-burst mix and high-burst mix workloads".
package trace

import (
	"time"
)

// Series is one VM's (or one aggregate's) resource usage over time, sampled
// at a fixed interval. Values are percentages of the VM's provisioned
// capacity, matching the GWA-T-12 "CPU usage [%]" convention.
type Series struct {
	// Interval is the sampling period (GWA-T-12 uses 300 s).
	Interval time.Duration
	// CPUPercent holds CPU usage samples in [0,100].
	CPUPercent []float64
	// MemPercent holds memory usage samples in [0,100].
	MemPercent []float64
}

// Len returns the number of samples.
func (s Series) Len() int { return len(s.CPUPercent) }

// Duration returns the time span the series covers.
func (s Series) Duration() time.Duration {
	return time.Duration(s.Len()) * s.Interval
}

// At returns the (cpu%, mem%) sample active at time t. Times beyond the end
// wrap around, so a short trace can drive a longer experiment.
func (s Series) At(t time.Duration) (cpu, mem float64) {
	if s.Len() == 0 || s.Interval <= 0 {
		return 0, 0
	}
	idx := int(t/s.Interval) % s.Len()
	if idx < 0 {
		idx += s.Len()
	}
	cpu = s.CPUPercent[idx]
	if idx < len(s.MemPercent) {
		mem = s.MemPercent[idx]
	}
	return cpu, mem
}

// MaxCPU returns the largest CPU sample, or 0 when empty.
func (s Series) MaxCPU() float64 {
	var m float64
	for _, v := range s.CPUPercent {
		if v > m {
			m = v
		}
	}
	return m
}

// Trace is a collection of VM series with a common interval — the shape of
// the Bitbrains `Rnd` dataset (500 VMs).
type Trace struct {
	Interval time.Duration
	Series   []Series
}

// Mean returns the across-VM average series — what Fig. 9 plots ("CPU and
// memory usage averaged over all microservices").
func (t *Trace) Mean() Series {
	out := Series{Interval: t.Interval}
	if len(t.Series) == 0 {
		return out
	}
	n := 0
	for _, s := range t.Series {
		if s.Len() > n {
			n = s.Len()
		}
	}
	out.CPUPercent = make([]float64, n)
	out.MemPercent = make([]float64, n)
	for i := 0; i < n; i++ {
		var cpu, mem float64
		var cnt int
		for _, s := range t.Series {
			if i < s.Len() {
				cpu += s.CPUPercent[i]
				if i < len(s.MemPercent) {
					mem += s.MemPercent[i]
				}
				cnt++
			}
		}
		if cnt > 0 {
			out.CPUPercent[i] = cpu / float64(cnt)
			out.MemPercent[i] = mem / float64(cnt)
		}
	}
	return out
}

// Partition splits the trace's series into k disjoint groups (round-robin)
// and returns the mean series of each — used to drive the paper's 15
// microservices from the 500-VM trace.
func (t *Trace) Partition(k int) []Series {
	if k <= 0 {
		return nil
	}
	groups := make([]Trace, k)
	for i := range groups {
		groups[i].Interval = t.Interval
	}
	for i, s := range t.Series {
		g := i % k
		groups[g].Series = append(groups[g].Series, s)
	}
	out := make([]Series, k)
	for i := range groups {
		out[i] = groups[i].Mean()
	}
	return out
}
