// Package workload defines the microservice and request abstractions shared
// by the whole simulator. It mirrors the paper's "custom Java microservice
// with configurable workload": each service declares how much CPU time,
// memory and egress traffic a single client request consumes, and the
// simulator charges those demands against the container hosting the replica.
package workload

import (
	"fmt"
	"math"
	"time"
)

// Kind classifies a microservice by its dominant resource, matching the four
// microservice types evaluated in the paper (§VI): CPU-bound, memory-bound,
// network-bound, and mixed CPU+memory.
type Kind int

// Microservice kinds. Enum starts at one so the zero value is invalid and
// accidental zero-initialisation is caught early.
const (
	KindUnknown Kind = iota
	KindCPUBound
	KindMemoryBound
	KindNetworkBound
	KindMixed
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCPUBound:
		return "cpu-bound"
	case KindMemoryBound:
		return "memory-bound"
	case KindNetworkBound:
		return "network-bound"
	case KindMixed:
		return "mixed"
	default:
		return fmt.Sprintf("unknown(%d)", int(k))
	}
}

// ServiceSpec describes one emulated microservice: its identity, what a
// single request costs, and its deployment envelope (baseline memory of the
// application/image and the initial per-replica resource request).
type ServiceSpec struct {
	// Name uniquely identifies the microservice within an experiment.
	Name string
	// Kind is the dominant-resource classification.
	Kind Kind

	// CPUPerRequest is the amount of CPU work one request needs, expressed
	// in cpu-seconds (one core running for that long).
	CPUPerRequest float64
	// CPUOverheadPerRequest is a fixed per-request cost (request parsing,
	// JVM dispatch, serialisation) that does NOT shrink when the service is
	// replicated. The paper identifies this application overhead as a reason
	// horizontal scaling degrades CPU-bound response times (§III-A).
	CPUOverheadPerRequest float64
	// MemPerRequest is the transient memory footprint (MiB) a request holds
	// while it is being processed.
	MemPerRequest float64
	// NetPerRequest is the egress payload (megabits) the response carries.
	NetPerRequest float64

	// BaselineMemMB is the resident memory of the application and container
	// image itself (the "JVM overhead" of §III-B); every replica pays it.
	BaselineMemMB float64
	// BackgroundCPU is the CPU (cores) every replica burns regardless of
	// traffic — runtime agents, JVM GC, health checks. §III-A: the
	// application overhead that "when replicated several times ... becomes
	// much more significant" and penalises many-small-replica layouts.
	BackgroundCPU float64

	// InitialReplicaRequest is the resource request a fresh replica starts
	// with. Kubernetes keeps this fixed for the lifetime of the replica;
	// HyScale adjusts it through vertical scaling.
	InitialReplicaCPU float64
	// InitialReplicaMemMB is the memory limit a fresh replica starts with.
	InitialReplicaMemMB float64
	// InitialReplicaNetMbps is the tc egress cap a fresh replica starts with
	// (0 means unshaped).
	InitialReplicaNetMbps float64

	// MinReplicas and MaxReplicas bound horizontal scaling, as in the
	// Kubernetes HPA configuration.
	MinReplicas int
	MaxReplicas int

	// Timeout is how long a client waits before declaring the request failed
	// (a "connection failure" in the paper's terminology).
	Timeout time.Duration

	// QueueLimit bounds the number of in-flight requests one replica will
	// hold (its admission queue). Zero means unbounded — the paper's
	// original model. Bounded queues are what lets congestion at a slow
	// downstream tier back-pressure its callers instead of growing an
	// invisible infinite queue.
	QueueLimit int

	// StateSyncMB is the state a fresh replica must receive from the
	// existing replicas before it can serve (0 = stateless). The paper
	// singles out stateful services as the case where horizontal scaling is
	// "non-trivial" and vertical scaling shines (§IV-B); modelling the
	// state transfer as additional start latency captures that asymmetry.
	StateSyncMB float64
	// StateSyncMbps is the transfer rate of the state sync; defaults to
	// 200 Mbps when zero.
	StateSyncMbps float64
}

// SyncDelay returns the extra start latency a fresh replica pays to receive
// the service's state, zero for stateless services.
func (s ServiceSpec) SyncDelay() time.Duration {
	if s.StateSyncMB <= 0 {
		return 0
	}
	rate := s.StateSyncMbps
	if rate <= 0 {
		rate = 200
	}
	seconds := s.StateSyncMB * 8 / rate
	return time.Duration(seconds * float64(time.Second))
}

// Validate reports a descriptive error when the spec is not usable.
func (s ServiceSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: service spec has empty name")
	case s.Kind == KindUnknown:
		return fmt.Errorf("workload: service %q has unknown kind", s.Name)
	case s.CPUPerRequest < 0 || s.CPUOverheadPerRequest < 0 || s.MemPerRequest < 0 || s.NetPerRequest < 0:
		return fmt.Errorf("workload: service %q has negative per-request demand", s.Name)
	case s.BaselineMemMB < 0:
		return fmt.Errorf("workload: service %q has negative baseline memory", s.Name)
	case s.InitialReplicaCPU <= 0:
		return fmt.Errorf("workload: service %q needs a positive initial CPU request", s.Name)
	case s.InitialReplicaMemMB <= 0:
		return fmt.Errorf("workload: service %q needs a positive initial memory request", s.Name)
	case s.MinReplicas < 1:
		return fmt.Errorf("workload: service %q needs MinReplicas >= 1", s.Name)
	case s.MaxReplicas < s.MinReplicas:
		return fmt.Errorf("workload: service %q has MaxReplicas < MinReplicas", s.Name)
	case s.Timeout <= 0:
		return fmt.Errorf("workload: service %q needs a positive timeout", s.Name)
	case s.QueueLimit < 0:
		return fmt.Errorf("workload: service %q has negative queue limit", s.Name)
	}
	return nil
}

// TotalCPUWork returns the total cpu-seconds a request consumes, including
// the fixed application overhead.
func (s ServiceSpec) TotalCPUWork() float64 {
	return s.CPUPerRequest + s.CPUOverheadPerRequest
}

// FailureClass distinguishes the two premature-termination modes the paper
// reports separately in Figures 6-8: requests killed because their container
// was removed by a scale-in decision, and requests that failed at the
// microservice (no live replica, queue rejection, or timeout).
type FailureClass int

// Failure classes.
const (
	FailureNone FailureClass = iota
	// FailureRemoval is a request that ended prematurely because its
	// container was removed (paper: "removal failures").
	FailureRemoval
	// FailureConnection is a request that failed prematurely at the
	// microservice: no replica available or timeout (paper: "connection
	// failures").
	FailureConnection
)

// String implements fmt.Stringer.
func (f FailureClass) String() string {
	switch f {
	case FailureNone:
		return "none"
	case FailureRemoval:
		return "removal"
	case FailureConnection:
		return "connection"
	default:
		return fmt.Sprintf("FailureClass(%d)", int(f))
	}
}

// Phase tracks where in its lifecycle a request currently is. Requests are
// processed in two sequential stages: the CPU stage (compute the response)
// and the network stage (transmit it through the container's egress shaper).
type Phase int32

// Request phases. PhaseWait only occurs in call-graph runs: the request's
// own CPU and network work is done but downstream calls are still
// outstanding, so it keeps holding its replica's queue slot and memory —
// the mechanism that back-pressures callers of a slow dependency.
const (
	PhaseCPU Phase = iota + 1
	PhaseNet
	PhaseWait
	PhaseDone
)

// PhaseRecycled is never the phase of a live request: a RequestPool stamps
// it on every request it takes back, so a stale reference that survives its
// accounting shows up as a request in no valid phase.
const PhaseRecycled Phase = -1

// Request is one in-flight client request. Requests are created by the load
// generator, routed by a load balancer to a container, and advanced by the
// cluster physics every tick.
type Request struct {
	// ID is unique within an experiment run.
	ID uint64
	// Service is the target microservice name.
	Service string
	// Arrival is the simulated time the request reached the load balancer.
	Arrival time.Duration
	// Deadline is Arrival + the service timeout.
	Deadline time.Duration

	// Phase is the current processing stage.
	Phase Phase
	// ServiceOrd is the dense ordinal the World gave the service at
	// registration. The route path and the completion accounting index
	// their per-service slices by it; Service stays for output. (32 bits,
	// paired with Phase, keep a Request in a 112-byte allocation.)
	ServiceOrd int32
	// RemainingCPU is the cpu-seconds of work left in the CPU stage.
	RemainingCPU float64
	// RemainingNetMb is the megabits left to transmit in the network stage.
	RemainingNetMb float64
	// MemFootprintMB is the transient memory the request holds while in
	// flight.
	MemFootprintMB float64

	// ExtraLatency accumulates latency charged outside resource contention,
	// e.g. the cross-node distribution overhead of §III-A.
	ExtraLatency time.Duration

	// Call-graph fields, all zero for the paper's independent-service
	// workloads. Attempt is the 1-based attempt ordinal of this call slot
	// (retries re-issue with Attempt+1).
	Attempt int
	// PendingChildren counts downstream calls this request still waits on;
	// while positive a request whose own phases finished parks in
	// PhaseWait instead of completing. Managed by the platform layer.
	PendingChildren int
	// OwnDoneAt records when the request's own CPU/network phases finished,
	// for latency composition once the last child returns.
	OwnDoneAt time.Duration
	// Node is an opaque handle the call-graph layer stores on a request it
	// tracks, naming the request's node in that layer's slab; zero means
	// untracked. (8 bytes keep a Request in a 112-byte allocation.)
	Node uint64
}

// NewRequest builds a request for spec arriving at the given simulated time.
func NewRequest(id uint64, spec ServiceSpec, arrival time.Duration) *Request {
	return (*RequestPool)(nil).New(id, &spec, 0, arrival)
}

// RequestPool is a free list of requests. Its owner returns a request with
// Put once every consumer is done with it, and New hands it out again, so
// a steady request stream allocates nothing. A nil pool allocates every
// request and ignores Put.
type RequestPool struct {
	free []*Request
	// made counts the requests New allocated instead of reusing one.
	made int
}

// Counts returns how many requests the pool holds free and how many it has
// ever allocated; the difference is the number its owner has out.
func (p *RequestPool) Counts() (free, made int) {
	if p == nil {
		return 0, 0
	}
	return len(p.free), p.made
}

// New builds a request for spec (service ordinal ord) arriving at the given
// simulated time, reusing a recycled request when one is free. spec is read,
// never retained.
func (p *RequestPool) New(id uint64, spec *ServiceSpec, ord int, arrival time.Duration) *Request {
	var r *Request
	if p != nil && len(p.free) > 0 {
		r = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	} else {
		r = new(Request)
		if p != nil {
			p.made++
		}
	}
	// Field by field: a whole-struct store into a heap object with pointer
	// fields compiles to a typed bulk copy (runtime.duffcopy).
	r.ID = id
	r.Service = spec.Name
	r.ServiceOrd = int32(ord)
	r.Arrival = arrival
	r.Deadline = arrival + spec.Timeout
	r.Phase = PhaseCPU
	r.RemainingCPU = spec.TotalCPUWork()
	r.RemainingNetMb = spec.NetPerRequest
	r.MemFootprintMB = spec.MemPerRequest
	r.ExtraLatency = 0
	r.Attempt = 0
	r.PendingChildren = 0
	r.OwnDoneAt = 0
	r.Node = 0
	return r
}

// Put takes r back. The caller must hold the last reference: r is poisoned
// (PhaseRecycled, NaN remaining work, ordinal -1) and handed out again by a
// later New.
func (p *RequestPool) Put(r *Request) {
	if p == nil {
		return
	}
	nan := math.NaN()
	r.Phase = PhaseRecycled
	r.ServiceOrd = -1
	r.RemainingCPU, r.RemainingNetMb, r.MemFootprintMB = nan, nan, nan
	p.free = append(p.free, r)
}

// Finished reports whether both processing stages are complete.
func (r *Request) Finished() bool { return r.Phase == PhaseDone }
