// Package container models a Docker container hosting exactly one
// microservice replica, the paper's unit of deployment (§V-A). It reproduces
// the control surface the autoscaler platform drives — `docker update` for
// CPU shares and memory limits, tc egress caps, container start latency, and
// in-flight request loss on removal — without running real containers.
package container

import (
	"fmt"
	"time"

	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// State is the container lifecycle state.
type State int

// Container lifecycle states. A container is only routable while Running.
const (
	StateStarting State = iota + 1
	StateRunning
	StateRemoved
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateRunning:
		return "running"
	case StateRemoved:
		return "removed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Usage is a point-in-time resource usage sample for one container, in the
// same units the `docker stats` API reports conceptually: consumed CPU cores,
// resident memory, and egress bandwidth over the last accounting window.
type Usage struct {
	CPU     float64 // cores actually consumed
	MemMB   float64 // resident set, including what would be swapped
	NetMbps float64 // egress bandwidth achieved
}

// Container is one replica of a microservice. All mutation happens on the
// simulation goroutine; the type carries no locks by design (the engine is
// single-threaded).
type Container struct {
	// ID uniquely identifies the container in the cluster.
	ID string
	// Service is the microservice this replica belongs to.
	Service string
	// NodeID is the machine hosting the container.
	NodeID string
	// Slot is the container's dense index among the live containers of its
	// cluster: assigned when a node takes the container, recycled once the
	// node lets it go. Per-container caches (the balancer's health-probe
	// cache) index by it instead of hashing ID. Zero until placed.
	Slot int

	// Spec is the service specification (per-request demands, baseline
	// memory, timeout).
	Spec workload.ServiceSpec

	// Alloc is the container's current resource allocation: the CPU request
	// (expressed through Docker CPU shares), the memory limit, and the tc
	// egress cap. Vertical scaling rewrites this vector in place, which is
	// the simulated `docker update`.
	Alloc resources.Vector

	// State is the lifecycle state.
	State State
	// ReadyAt is when a Starting container becomes Running.
	ReadyAt time.Duration

	// StressCPUDemand makes the container behave like the paper's progrium
	// stress contender: it permanently demands this many cores regardless of
	// in-flight requests. Zero for normal microservice replicas.
	StressCPUDemand float64
	// StressNetFlows makes the container hog egress bandwidth permanently
	// with this many concurrent flows, like the flooding network stress
	// container of §III-C. Zero for normal replicas.
	StressNetFlows int

	inflight []*workload.Request
	// tally caches Tally() while tallyOK holds: Enqueue and AdvanceInto keep
	// its counts current and its memory in Tally's left-to-right sum,
	// Release and Remove clear tallyOK, and the next Tally re-scans.
	// Routing reads the overload verdict per replica per request and the
	// physics tick reads the tally per container; the cache makes both O(1)
	// instead of a scan of the in-flight set.
	tally   Tally
	tallyOK bool

	// lastUsage is the usage measured over the most recent physics tick; the
	// node manager samples it to answer the Monitor's stats queries.
	lastUsage Usage
}

// New creates a container in the Starting state that becomes Running at
// readyAt.
func New(id string, spec workload.ServiceSpec, nodeID string, alloc resources.Vector, readyAt time.Duration) *Container {
	return &Container{
		ID:      id,
		Service: spec.Name,
		NodeID:  nodeID,
		Spec:    spec,
		Alloc:   alloc,
		State:   StateStarting,
		ReadyAt: readyAt,
	}
}

// MaybeStart transitions Starting→Running once now has reached ReadyAt.
func (c *Container) MaybeStart(now time.Duration) {
	if c.State == StateStarting && now >= c.ReadyAt {
		c.State = StateRunning
	}
}

// Routable reports whether the load balancer may send requests here.
func (c *Container) Routable() bool { return c.State == StateRunning }

// Update applies a vertical scaling action (the simulated `docker update`):
// it replaces the allocation vector. Components must be non-negative.
func (c *Container) Update(alloc resources.Vector) error {
	if !alloc.NonNegative() {
		return fmt.Errorf("container %s: negative allocation %v", c.ID, alloc)
	}
	c.Alloc = alloc
	return nil
}

// Enqueue admits a request for processing. The caller (load balancer) must
// have checked Routable.
func (c *Container) Enqueue(r *workload.Request) {
	c.inflight = append(c.inflight, r)
	// Appending extends Tally's sum by one term, in Tally's order.
	c.tally = c.tally.add(r)
}

// Inflight returns the number of requests currently being processed.
func (c *Container) Inflight() int { return len(c.inflight) }

// ActiveInflight returns the in-flight requests still doing CPU or network
// work — excluding PhaseWait call-graph parents, which hold a queue slot
// (back-pressure) but consume no resources while their downstream calls are
// outstanding. Load shedding keys off this: a queue full of waiters is not a
// saturated replica.
func (c *Container) ActiveInflight() int {
	n := 0
	for _, r := range c.inflight {
		if r.Phase != workload.PhaseWait {
			n++
		}
	}
	return n
}

// QueueFull reports whether the replica's bounded admission queue is at
// capacity. Always false when the service declares no queue limit, which is
// the paper's original unbounded model.
func (c *Container) QueueFull() bool {
	return c.Spec.QueueLimit > 0 && len(c.inflight) >= c.Spec.QueueLimit
}

// Release removes one request from the in-flight set without the usual
// completion/timeout bookkeeping — the call-graph layer uses it to resolve
// a PhaseWait parent the moment its last downstream call returns (success)
// or a child fails permanently (fail-fast). Returns false when the request
// is not held here.
func (c *Container) Release(r *workload.Request) bool {
	for i, held := range c.inflight {
		if held == r {
			c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			c.tallyOK = false
			return true
		}
	}
	return false
}

// InflightRequests exposes the in-flight slice for the physics loop. Callers
// must not retain the slice across ticks.
func (c *Container) InflightRequests() []*workload.Request { return c.inflight }

// Tally is one container's physics inputs at one instant: what a single
// pass over its in-flight requests gathers. Every physics quantity derived
// from the in-flight set (CPU demand, flow count, swap state, overload) is
// defined on top of it, and nowhere else.
type Tally struct {
	// CPUReqs and NetReqs count the in-flight requests in the CPU and
	// network phases.
	CPUReqs, NetReqs int
	// MemMB is resident memory: the application baseline plus the
	// transient footprint of every in-flight request, summed in that order
	// (baseline first, then the queue front to back). Usage beyond the
	// memory limit is what forces the (simulated) kernel to swap.
	MemMB float64
}

// add returns t with one more in-flight request. It takes and returns the
// tally by value so a loop keeps it in registers.
func (t Tally) add(r *workload.Request) Tally {
	switch r.Phase {
	case workload.PhaseCPU:
		t.CPUReqs++
	case workload.PhaseNet:
		t.NetReqs++
	}
	t.MemMB += r.MemFootprintMB
	return t
}

// Tally returns the container's tally: the cached one when the in-flight
// set has not changed since it was last taken or kept current, otherwise a
// fresh scan.
func (c *Container) Tally() Tally {
	if !c.tallyOK {
		c.tally, c.tallyOK = c.scan(), true
	}
	return c.tally
}

// scan tallies the in-flight requests in one pass.
func (c *Container) scan() Tally {
	t := Tally{MemMB: c.Spec.BaselineMemMB}
	for _, r := range c.inflight {
		t = t.add(r)
	}
	return t
}

// CPUDemand returns the CPU the container could consume at the instant of
// t: the application's constant background burn plus one core per
// in-flight request in the CPU phase (requests are single-threaded). Stress
// containers demand their configured amount permanently.
func (c *Container) CPUDemand(t Tally) float64 {
	d := float64(t.CPUReqs) + c.Spec.BackgroundCPU
	if c.StressCPUDemand > d {
		d = c.StressCPUDemand
	}
	return d
}

// NetFlowCount returns the number of concurrent transmitting micro-flows:
// the in-flight requests in the network phase, plus the persistent flows of
// a network stress hog. The node's tx-queue contention grows with this
// count.
func (c *Container) NetFlowCount(t Tally) int { return c.StressNetFlows + t.NetReqs }

// Swapping reports whether resident memory exceeds the memory limit, i.e.
// the container is paying the swap penalty of §III-B.
func (c *Container) Swapping(t Tally) bool {
	return c.Alloc.MemMB > 0 && t.MemMB > c.Alloc.MemMB
}

// SwapDepth returns resident memory as a multiple of the memory limit (1.0
// at the limit, 2.0 at twice the limit). The swap slowdown deepens with this
// ratio: the further past the limit, the larger the fraction of the working
// set living on disk. Returns 0 when no limit is set.
func (c *Container) SwapDepth(t Tally) float64 {
	if c.Alloc.MemMB <= 0 {
		return 0
	}
	return t.MemMB / c.Alloc.MemMB
}

// Overloaded reports whether the container is so far past its memory limit
// that it stops accepting new connections (the microservice-level rejection
// behind the paper's "connection failures"). The threshold is three times
// the limit — by then nearly the whole working set is swapped.
func (c *Container) Overloaded() bool {
	if c.Alloc.MemMB <= 0 {
		return false
	}
	return c.Tally().MemMB > 3*c.Alloc.MemMB
}

// SetLastUsage records the usage measured over the latest physics tick.
func (c *Container) SetLastUsage(u Usage) { c.lastUsage = u }

// LastUsage returns the most recent usage sample (what `docker stats` would
// report).
func (c *Container) LastUsage() Usage { return c.lastUsage }

// AdvanceResult describes what happened to the container's in-flight
// requests during one physics tick.
type AdvanceResult struct {
	// Completed holds requests that finished both phases this tick, along
	// with the simulated completion time of each.
	Completed []CompletedRequest
	// TimedOut holds requests that crossed their deadline this tick.
	TimedOut []*workload.Request
}

// CompletedRequest pairs a finished request with its completion instant.
type CompletedRequest struct {
	Request *workload.Request
	At      time.Duration
}

// Advance progresses in-flight requests by dt given the CPU rate (cores
// actually delivered to this container this tick, after node-level sharing
// and contention) and the egress rate (Mbps delivered after tc shaping and
// tx-queue contention). It returns completions and timeouts and updates the
// container's usage sample.
//
// Within the container, requests in the CPU phase share the delivered CPU
// equally (processor sharing), and requests in the network phase share the
// delivered egress bandwidth equally — matching how the kernel scheduler and
// a fair tc qdisc behave.
func (c *Container) Advance(now time.Duration, dt time.Duration, cpuRate, netRate float64) AdvanceResult {
	var res AdvanceResult
	c.AdvanceInto(&res, c.Tally(), now, dt, cpuRate, netRate)
	return res
}

// AdvanceInto is Advance appending the completions and timeouts to res, so
// a node merging its containers' results fills one reused buffer. t must be
// the container's Tally taken since its in-flight set last changed.
func (c *Container) AdvanceInto(res *AdvanceResult, t Tally, now time.Duration, dt time.Duration, cpuRate, netRate float64) {
	if dt <= 0 {
		return
	}
	sec := dt.Seconds()
	cpuReqs, netReqs := t.CPUReqs, t.NetReqs

	cpuConsumed := 0.0
	netConsumed := 0.0

	// The application's background burn (GC, agents) is served before
	// request work and produces no request progress.
	bg := c.Spec.BackgroundCPU
	if bg > cpuRate {
		bg = cpuRate
	}
	cpuConsumed += bg * sec
	requestRate := cpuRate - bg

	perReqCPU := 0.0
	if cpuReqs > 0 {
		perReqCPU = requestRate / float64(cpuReqs)
		// A single-threaded request can use at most one core.
		if perReqCPU > 1 {
			perReqCPU = 1
		}
	}
	perReqNet := 0.0
	if netReqs > 0 {
		perReqNet = netRate / float64(netReqs)
	}

	// after re-tallies the kept requests, in Tally's order: its memory is
	// the end-of-tick usage sample.
	after := Tally{MemMB: c.Spec.BaselineMemMB}
	kept := c.inflight[:0]
	for _, r := range c.inflight {
		finishedAt := now + dt
		switch r.Phase {
		case workload.PhaseCPU:
			work := perReqCPU * sec
			if work >= r.RemainingCPU && perReqCPU > 0 {
				// Finished the CPU phase mid-tick; estimate the sub-tick
				// instant for response-time accuracy and move any leftover
				// effort to the network phase only conceptually (the network
				// phase starts next tick; the residual error is bounded by
				// one tick).
				frac := r.RemainingCPU / (perReqCPU * sec)
				cpuConsumed += r.RemainingCPU
				r.RemainingCPU = 0
				if r.RemainingNetMb <= 0 {
					r.Phase = workload.PhaseDone
					finishedAt = now + time.Duration(float64(dt)*frac)
				} else {
					r.Phase = workload.PhaseNet
				}
			} else {
				cpuConsumed += work
				r.RemainingCPU -= work
			}
		case workload.PhaseNet:
			sent := perReqNet * sec
			if sent >= r.RemainingNetMb && perReqNet > 0 {
				frac := r.RemainingNetMb / (perReqNet * sec)
				netConsumed += r.RemainingNetMb
				r.RemainingNetMb = 0
				r.Phase = workload.PhaseDone
				finishedAt = now + time.Duration(float64(dt)*frac)
			} else {
				netConsumed += sent
				r.RemainingNetMb -= sent
			}
		}

		// A call-graph parent whose own work is done but whose downstream
		// calls are still outstanding parks in PhaseWait: it keeps holding
		// its queue slot and memory footprint (back-pressure) and only
		// completes when the platform resolves its last child.
		if r.Phase == workload.PhaseDone && r.PendingChildren > 0 {
			r.Phase = workload.PhaseWait
		}

		switch {
		case r.Phase == workload.PhaseDone:
			res.Completed = append(res.Completed, CompletedRequest{Request: r, At: finishedAt})
		case now+dt >= r.Deadline:
			res.TimedOut = append(res.TimedOut, r)
		default:
			kept = append(kept, r)
			after = after.add(r)
		}
	}
	// Zero the tail so dropped requests do not linger.
	for i := len(kept); i < len(c.inflight); i++ {
		c.inflight[i] = nil
	}
	c.inflight = kept
	c.tally, c.tallyOK = after, true

	// Stress containers burn whatever they were granted even though they
	// complete no requests.
	if c.StressCPUDemand > 0 {
		granted := cpuRate
		if granted > c.StressCPUDemand {
			granted = c.StressCPUDemand
		}
		if granted*sec > cpuConsumed {
			cpuConsumed = granted * sec
		}
	}
	if c.StressNetFlows > 0 && netRate*sec > netConsumed {
		netConsumed = netRate * sec
	}

	c.lastUsage = Usage{
		CPU:     cpuConsumed / sec,
		MemMB:   after.MemMB,
		NetMbps: netConsumed / sec,
	}
}

// Remove transitions the container to Removed and returns the in-flight
// requests that were killed — the paper's "removal failures".
func (c *Container) Remove() []*workload.Request {
	killed := c.inflight
	c.inflight = nil
	c.tallyOK = false
	c.State = StateRemoved
	return killed
}
