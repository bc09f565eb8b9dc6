// Package lb implements the distributed server-side load balancers of the
// paper's platform (§V): they proxy client requests to the replicas of a
// microservice. The balancer also charges the cross-node distribution
// overhead the paper measured in §III-A — a latency term that grows
// logarithmically with the number of replicas.
//
// The balancer actively health-checks its backends: an installed
// HealthCheck probe is consulted (at most once per ProbeInterval per
// backend) and unhealthy replicas are ejected from rotation until a later
// probe sees them recover. The probe cache models real LB behaviour —
// detection and readmission both lag by up to one probe interval.
package lb

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/workload"
)

// Policy selects how the balancer picks a replica.
type Policy int

// Routing policies.
const (
	// RoundRobin cycles through routable replicas per service.
	RoundRobin Policy = iota + 1
	// LeastOutstanding picks the routable replica with the fewest in-flight
	// requests, breaking ties by order.
	LeastOutstanding
	// WeightedLeastOutstanding picks the replica with the lowest in-flight
	// count per allocated CPU — the right policy when vertical scaling has
	// made replica sizes heterogeneous (a 3-CPU replica should carry ~12x
	// the load of a 0.25-CPU one).
	WeightedLeastOutstanding
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastOutstanding:
		return "least-outstanding"
	case WeightedLeastOutstanding:
		return "weighted-least-outstanding"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ErrNoBackend is returned when a service has no replica that could ever
// take the request — none exist, all are overloaded, or health checks have
// ejected every one; the request becomes a connection failure.
var ErrNoBackend = errors.New("lb: no routable replica")

// ErrAllStarting is returned when replicas exist but every one is still
// mid-start — the autoscaler has reacted, capacity just isn't ready yet.
// Chaos analyses attribute these failures to start latency, not absence.
var ErrAllStarting = errors.New("lb: all replicas still starting")

// ErrAllFull is returned when healthy replicas exist but every one's bounded
// admission queue is at capacity — the back-pressure signal of a saturated
// tier. Only possible for services that declare a QueueLimit; callers treat
// it as a shed/drop, not an outage.
var ErrAllFull = errors.New("lb: all replica queues full")

// defaultProbeInterval spaces health probes per backend.
const defaultProbeInterval = 2 * time.Second

// probeState caches one backend's last health probe. id records which
// container the entry belongs to: slots are recycled, and an entry left by a
// departed container must read as a miss for the next one in its slot.
// Container IDs are never reissued, so slot and ID together key exactly
// what an ID-keyed cache would, without retaining the departed container.
type probeState struct {
	id      string
	at      time.Duration
	healthy bool
}

// Balancer routes requests to replicas. It is single-goroutine like the
// rest of the simulator.
type Balancer struct {
	policy Policy
	// DistributionOverhead is the latency charged per doubling of the
	// replica set (c·log2(replicas), §III-A). Zero disables the effect.
	DistributionOverhead time.Duration

	// HealthCheck, when set, is probed per backend (at most once per
	// ProbeInterval) and unhealthy backends are ejected from rotation until
	// a later probe readmits them. Nil disables health checking.
	HealthCheck func(now time.Duration, c *container.Container) bool
	// ProbeInterval caps probe frequency per backend; zero uses the 2s
	// default. The cache is what makes detection realistic: a backend that
	// just went down keeps receiving (and dropping) traffic until the next
	// probe notices.
	ProbeInterval time.Duration

	// rr is the round-robin cursor of each service, indexed by
	// Request.ServiceOrd and grown on demand.
	rr []int
	// log2 caches math.Log2 by routable-replica count, grown on demand: the
	// distribution overhead takes one of a few dozen values, not one
	// logarithm per request.
	log2 []float64
	// probes is the probe cache, indexed by Container.Slot. It grows to the
	// cluster's peak live-container count, never beyond.
	probes []probeState

	// rotation is split's reusable scratch for the viable-replica set —
	// rebuilt on every RouteAt, so routing a request allocates nothing.
	rotation []*container.Container
}

// New creates a balancer with the given policy.
func New(policy Policy) *Balancer {
	return &Balancer{policy: policy}
}

// Policy returns the routing policy.
func (b *Balancer) Policy() Policy { return b.policy }

// Route picks a replica for the request with the request's arrival as the
// probe clock. See RouteAt.
func (b *Balancer) Route(req *workload.Request, replicas []*container.Container) (*container.Container, error) {
	return b.RouteAt(req.Arrival, req, replicas)
}

// RouteAt picks a routable, healthy replica for the request and charges the
// distribution overhead. It does not enqueue the request; the caller does,
// which keeps routing decisions testable in isolation. Returns
// ErrAllStarting when replicas exist but none has finished starting, and
// ErrNoBackend when there is no viable backend at all.
func (b *Balancer) RouteAt(now time.Duration, req *workload.Request, replicas []*container.Container) (*container.Container, error) {
	routable, starting, full := b.split(now, replicas)
	if len(routable) == 0 {
		switch {
		case full > 0:
			return nil, ErrAllFull
		case starting > 0:
			return nil, ErrAllStarting
		}
		return nil, ErrNoBackend
	}

	if b.DistributionOverhead > 0 && len(routable) > 1 {
		req.ExtraLatency += time.Duration(float64(b.DistributionOverhead) * b.log2Of(len(routable)))
	}

	switch b.policy {
	case LeastOutstanding:
		best := routable[0]
		for _, c := range routable[1:] {
			if c.Inflight() < best.Inflight() {
				best = c
			}
		}
		return best, nil
	case WeightedLeastOutstanding:
		best := routable[0]
		bestScore := weightedScore(best)
		for _, c := range routable[1:] {
			if s := weightedScore(c); s < bestScore {
				best, bestScore = c, s
			}
		}
		return best, nil
	default: // RoundRobin, also the fallback for unknown policies
		ord := int(req.ServiceOrd)
		if ord >= len(b.rr) {
			b.rr = append(b.rr, make([]int, ord+1-len(b.rr))...)
		}
		i := b.rr[ord] % len(routable)
		b.rr[ord] = (i + 1) % len(routable)
		return routable[i], nil
	}
}

// log2Of returns math.Log2(n) from the table, extending it to n first.
func (b *Balancer) log2Of(n int) float64 {
	for len(b.log2) <= n {
		b.log2 = append(b.log2, math.Log2(float64(len(b.log2))))
	}
	return b.log2[n]
}

// weightedScore is in-flight load per allocated CPU; replicas with no CPU
// request count as minimally sized so they still sort sanely.
func weightedScore(c *container.Container) float64 {
	cpu := c.Alloc.CPU
	if cpu <= 0 {
		cpu = 0.01
	}
	return float64(c.Inflight()) / cpu
}

// split partitions replicas into the viable rotation plus counts of those
// still starting and those healthy-but-queue-full. Health-ejected and
// overloaded replicas belong to none of the three: they exist but cannot
// take traffic, which keeps ErrNoBackend (not ErrAllStarting) the verdict
// when ejection empties the rotation. Queue-full replicas are counted
// separately so an entirely saturated tier reads as back-pressure
// (ErrAllFull), not an outage.
func (b *Balancer) split(now time.Duration, replicas []*container.Container) ([]*container.Container, int, int) {
	out := b.rotation[:0]
	starting := 0
	full := 0
	for _, c := range replicas {
		if !c.Routable() {
			if c.State == container.StateStarting {
				starting++
			}
			continue
		}
		if c.Overloaded() || !b.healthy(now, c) {
			continue
		}
		if c.QueueFull() {
			full++
			continue
		}
		out = append(out, c)
	}
	b.rotation = out
	return out, starting, full
}

// healthy returns the (possibly cached) probe verdict for a backend.
func (b *Balancer) healthy(now time.Duration, c *container.Container) bool {
	if b.HealthCheck == nil {
		return true
	}
	interval := b.ProbeInterval
	if interval <= 0 {
		interval = defaultProbeInterval
	}
	if c.Slot >= len(b.probes) {
		b.probes = append(b.probes, make([]probeState, c.Slot+1-len(b.probes))...)
	}
	p := &b.probes[c.Slot]
	if p.id == c.ID && now-p.at < interval {
		return p.healthy
	}
	h := b.HealthCheck(now, c)
	*p = probeState{id: c.ID, at: now, healthy: h}
	return h
}
