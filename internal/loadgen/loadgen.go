// Package loadgen emulates the paper's client load: open-loop request
// arrivals following the stable "low-burst" wave, the unstable "high-burst"
// spiking pattern (§VI), fixed-count microbenchmarks (§III), and
// trace-driven demand (the Bitbrains replay of §VI-B).
package loadgen

import (
	"math"
	"math/rand"
	"time"

	"hyscale/internal/workload"
)

// Pattern yields the instantaneous request rate (requests/second) at a
// simulated time.
type Pattern interface {
	Rate(at time.Duration) float64
}

// Constant is a flat arrival rate.
type Constant struct {
	// RPS is the constant rate in requests per second.
	RPS float64
}

// Rate implements Pattern.
func (c Constant) Rate(time.Duration) float64 { return c.RPS }

// Wave is the paper's low-burst stable load: a low-amplitude sinusoid that
// emulates gentle peaks and troughs in client activity.
type Wave struct {
	// Base is the mean rate (requests/second).
	Base float64
	// Amplitude is the relative swing around Base (0.25 means ±25 %).
	Amplitude float64
	// Period is the wavelength of one peak-trough cycle.
	Period time.Duration
	// PhaseShift offsets the wave so services do not all peak together.
	PhaseShift time.Duration
}

// Rate implements Pattern.
func (w Wave) Rate(at time.Duration) float64 {
	if w.Period <= 0 {
		return w.Base
	}
	phase := 2 * math.Pi * float64(at+w.PhaseShift) / float64(w.Period)
	r := w.Base * (1 + w.Amplitude*math.Sin(phase))
	if r < 0 {
		return 0
	}
	return r
}

// Burst is the paper's high-burst unstable load: a spiking square wave that
// jumps from a quiet baseline to a peak for a short window each period.
type Burst struct {
	// Base is the off-peak rate (requests/second).
	Base float64
	// Peak is the in-burst rate (requests/second).
	Peak float64
	// Period is the time between burst starts.
	Period time.Duration
	// BurstLen is how long each burst lasts.
	BurstLen time.Duration
	// PhaseShift offsets the burst schedule.
	PhaseShift time.Duration
}

// Rate implements Pattern.
func (b Burst) Rate(at time.Duration) float64 {
	if b.Period <= 0 {
		return b.Base
	}
	pos := (at + b.PhaseShift) % b.Period
	if pos < b.BurstLen {
		return b.Peak
	}
	return b.Base
}

// Func adapts an arbitrary rate function to the Pattern interface; the
// trace package uses it to drive demand from Bitbrains usage series.
type Func func(at time.Duration) float64

// Rate implements Pattern.
func (f Func) Rate(at time.Duration) float64 { return f(at) }

// IDAllocator hands out process-wide unique request IDs for one experiment.
type IDAllocator struct{ next uint64 }

// Next returns a fresh request ID.
func (a *IDAllocator) Next() uint64 {
	a.next++
	return a.next
}

// Generator produces request arrivals for one microservice.
type Generator struct {
	// Spec is the target service.
	Spec workload.ServiceSpec
	// Pattern drives the arrival rate over time.
	Pattern Pattern
	// Poisson, when true, draws each tick's arrival count from a Poisson
	// distribution with the expected mean instead of a deterministic
	// accumulator. Deterministic mode is exactly reproducible and is the
	// default for benchmarks.
	Poisson bool
	// ServiceOrd is stamped on every request as Request.ServiceOrd.
	ServiceOrd int
	// Pool, when set, supplies the requests; the World that owns it takes
	// each one back after its final accounting. Nil allocates.
	Pool *workload.RequestPool

	ids *IDAllocator
	acc float64
	// exp memoises exp(-λ) for the Poisson draw.
	exp expMemo
	// buf is Arrivals' reusable result buffer; each tick's slice is valid
	// until the next Arrivals call on this generator.
	buf []*workload.Request
}

// NewGenerator builds a generator drawing IDs from ids.
func NewGenerator(spec workload.ServiceSpec, p Pattern, ids *IDAllocator) *Generator {
	return &Generator{Spec: spec, Pattern: p, ids: ids}
}

// Arrivals returns the requests arriving in the window [now, now+dt). The
// arrival instants are spread uniformly across the window for latency
// accuracy.
//
// The returned slice is a reused scratch buffer, valid until the next
// Arrivals call on this generator — consume (route) it immediately.
func (g *Generator) Arrivals(now, dt time.Duration, rng *rand.Rand) []*workload.Request {
	if dt <= 0 {
		return nil
	}
	rate := g.Pattern.Rate(now)
	expected := rate * dt.Seconds()

	var n int
	if g.Poisson && rng != nil {
		n = poisson(rng, expected, &g.exp)
	} else {
		g.acc += expected
		n = int(g.acc)
		g.acc -= float64(n)
	}
	if n <= 0 {
		return nil
	}
	g.buf = g.buf[:0]
	for i := 0; i < n; i++ {
		at := now + time.Duration(float64(dt)*(float64(i)+0.5)/float64(n))
		g.buf = append(g.buf, g.Pool.New(g.ids.Next(), &g.Spec, g.ServiceOrd, at))
	}
	return g.buf
}

// expMemo caches exp(-λ) for the last λ. Burst and flash-crowd plateaus
// repeat the same rate tick after tick, so the Knuth loop's threshold is
// usually a hit. The cached value is the same float math.Exp returns.
type expMemo struct {
	lambda, exp float64
	ok          bool
}

// negExp returns exp(-lambda), memoised in m.
func (m *expMemo) negExp(lambda float64) float64 {
	if !m.ok || m.lambda != lambda {
		m.lambda, m.exp, m.ok = lambda, math.Exp(-lambda), true
	}
	return m.exp
}

// poisson draws a Poisson-distributed integer with mean lambda using
// Knuth's method for small lambda and a normal approximation above 30 to
// stay O(1).
func poisson(rng *rand.Rand, lambda float64, memo *expMemo) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := memo.negExp(lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
