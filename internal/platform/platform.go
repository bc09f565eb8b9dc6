// Package platform assembles the full autoscaler platform of §V — cluster,
// node managers, Monitor, load balancers, client load generators and metrics
// — into a single runnable World driven by the discrete-event engine. Every
// experiment and example in this repository is a World configuration.
package platform

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/cost"
	"hyscale/internal/faults"
	"hyscale/internal/lb"
	"hyscale/internal/loadgen"
	"hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/obs"
	"hyscale/internal/resilience"
	"hyscale/internal/resources"
	"hyscale/internal/scalermgr"
	"hyscale/internal/sim"
	"hyscale/internal/workload"
)

// Config parameterises a World. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Seed drives all randomness (Poisson arrivals).
	Seed int64
	// Nodes is the number of worker machines.
	Nodes int
	// NodeTemplate shapes every machine (ID is overwritten).
	NodeTemplate cluster.NodeConfig
	// Tick is the physics timestep.
	Tick time.Duration
	// MonitorPeriod is the stats-query/decision period (paper: 5 s).
	MonitorPeriod time.Duration
	// LBPolicy selects the load-balancer routing policy.
	LBPolicy lb.Policy
	// DistributionOverhead is the per-log2(replicas) latency the balancer
	// charges (§III-A). Zero disables it.
	DistributionOverhead time.Duration
	// BaseLatency is the constant per-request cost every request pays
	// regardless of scaling decisions: the LB proxy hop, connection setup
	// and network round trip inside the data centre.
	BaseLatency time.Duration
	// PoissonArrivals randomises per-tick arrival counts.
	PoissonArrivals bool
	// Cost prices the run (machine-hours + SLA penalties); see the cost
	// package. The default uses cost.DefaultConfig.
	Cost cost.Config
	// Faults configures control-plane fault injection; the zero value
	// injects nothing and leaves every hot path untouched.
	Faults faults.Config
	// Observe enables the decision-trace observability layer: the World owns
	// an obs.Journal that records every Monitor decision and per-service
	// time series sampled each monitor period. Off (the default) costs
	// nothing on the hot path.
	Observe bool
	// CallGraph declares inter-service call dependencies. The zero value
	// (no edges) keeps every service independent — the paper's workload —
	// and leaves the request hot path untouched.
	CallGraph workload.CallGraph
	// Resilience enables the cascading-failure defenses (circuit breakers,
	// retry budgets, deadline propagation, load shedding) on the call
	// graph's traffic. The zero value disables everything.
	Resilience resilience.Config
	// PlaneConfig shapes the control plane: the arbiters' start delay,
	// hardening and self-healing, the zone count (0 or 1, the default, runs
	// the single central arbiter with byte-identical output to every release
	// before zoning existed), cross-zone leasing and zone evacuation. See
	// monitor.PlaneConfig.
	monitor.PlaneConfig
}

// Validate checks the configuration. It holds every rule on a platform
// configuration; New calls it, and so does every entry point that compiles
// to one (runner.RunSpec.Validate, the scenario parser, the public facade).
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("platform: need at least one node")
	}
	if c.Tick <= 0 {
		return fmt.Errorf("platform: tick must be positive")
	}
	if c.Zones < 0 {
		return fmt.Errorf("platform: zones must be >= 0, got %d", c.Zones)
	}
	if c.Zones > c.Nodes {
		// A zone with no nodes can never host a service, and the lease scan
		// would silently skip it — reject instead of shrinking the request.
		return fmt.Errorf("platform: zones (%d) exceeds node count (%d)", c.Zones, c.Nodes)
	}
	if c.LeaseHeadroomCPU < 0 {
		return fmt.Errorf("platform: lease headroom must be >= 0, got %g", c.LeaseHeadroomCPU)
	}
	if c.SpilloverZones < 0 {
		return fmt.Errorf("platform: spillover zones must be >= 0, got %d", c.SpilloverZones)
	}
	if c.ReadoptAfter < 0 {
		return fmt.Errorf("platform: readopt cooldown must be >= 0, got %v", c.ReadoptAfter)
	}
	if c.Evacuate {
		if c.Zones < 2 {
			return fmt.Errorf("platform: zone evacuation requires a zoned control plane (zones >= 2)")
		}
		if !c.SelfHealing.Enabled {
			return fmt.Errorf("platform: zone evacuation requires self-healing (the per-zone failure detectors are its trigger)")
		}
	}
	if err := c.SelfHealing.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	for _, wnd := range c.Faults.Windows {
		if wnd.Kind != faults.KindZoneOutage && wnd.Kind != faults.KindZonePartition {
			continue
		}
		if c.Zones <= 1 {
			return fmt.Errorf("platform: %s fault windows need a zoned control plane (zones >= 2)", wnd.Kind)
		}
		zi, err := strconv.Atoi(wnd.Target)
		if err != nil || zi < 0 || zi >= c.Zones {
			return fmt.Errorf("platform: %s window targets zone %q, want an index in [0,%d)", wnd.Kind, wnd.Target, c.Zones)
		}
	}
	if err := c.Resilience.Validate(); err != nil {
		return err
	}
	return c.CallGraph.Validate(nil)
}

// DefaultConfig mirrors the paper's experimental setup: 24 nodes minus the
// five LB nodes leaves 19 workers; 4-core/8 GiB machines; 5 s monitor
// period.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                 seed,
		Nodes:                19,
		NodeTemplate:         cluster.DefaultNodeConfig(""),
		Tick:                 100 * time.Millisecond,
		MonitorPeriod:        5 * time.Second,
		PlaneConfig:          monitor.PlaneConfig{StartDelay: time.Second},
		LBPolicy:             lb.LeastOutstanding,
		DistributionOverhead: 25 * time.Millisecond,
		BaseLatency:          75 * time.Millisecond,
		PoissonArrivals:      false,
		Cost:                 cost.DefaultConfig(),
	}
}

// serviceRuntime couples a service with its load generator.
type serviceRuntime struct {
	spec workload.ServiceSpec
	// ord is the service's index in World.services: Request.ServiceOrd and
	// the control plane's service ordinal.
	ord int
	// name is the service's Name in the journal (0 when journaling is off).
	name obs.Name
}

// ConnFailureBreakdown attributes connection failures recorded at routing
// time to their cause — the distinction the chaos experiment reports.
type ConnFailureBreakdown struct {
	// Starting: replicas existed but all were still mid-start.
	Starting uint64
	// Absent: no viable replica at all (none exist, or every one was
	// overloaded or health-ejected). A tier whose bounded queues are all
	// full (lb.ErrAllFull) sheds the request instead; that connection
	// failure is not counted here.
	Absent uint64
	// Unhealthy: the balancer picked a backend that was black-holing
	// connections (injected outage not yet detected by health probes).
	Unhealthy uint64
}

// World is one fully-wired experiment instance.
type World struct {
	cfg     Config
	engine  *sim.Engine
	cluster *cluster.Cluster
	// ctl is the control plane the world drives: one arbiter per zone, a
	// single one for Zones <= 1.
	ctl *monitor.Plane
	lb  *lb.Balancer
	// algo is the algorithm instance driving the control plane, kept so
	// algorithm-specific observability (the scaler manager's per-scaler
	// recommendations) can be surfaced without re-plumbing the monitor.
	algo core.Algorithm

	services []*serviceRuntime
	byName   map[string]*serviceRuntime
	// gens holds the load generators of the services that have one, in
	// registration order: the tick's arrival loop walks this dense slice
	// instead of every service's runtime entry.
	gens []*loadgen.Generator
	// stats holds each service's recorder cell by ordinal, resolved on its
	// first recorded outcome so the recorder keeps its first-seen order.
	stats []*metrics.ServiceStats
	ids   loadgen.IDAllocator

	recorder *metrics.Recorder
	costs    *cost.Tracker
	faults   *faults.Injector
	connFail ConnFailureBreakdown
	journal  *obs.Journal
	// graph is the call-graph propagation layer, nil unless the config
	// declares a CallGraph or any resilience defense.
	graph *graphRun
	// res is the run's resilience manager, nil unless a defense is
	// enabled. Its methods are nil-safe, so admission calls it unguarded.
	res *resilience.Manager

	// replicaBuf is the reusable replica-lookup buffer for the poll journal
	// and for routing to spilled services. Valid only within one route/poll
	// call; never retained, and never assigned a RouteView result.
	replicaBuf []*container.Container

	// reqs recycles the world's requests. resolve returns a plain request
	// right after booking its final outcome. In a call-graph world parents
	// and children read each other past that point, so only the release of
	// a request's node returns it (graphRun.release).
	reqs *workload.RequestPool

	stressIdx int
	started   bool
	// monitorDown tracks whether the last poll fell inside a monitor-crash
	// fault window, so the first poll after the window restarts the Monitor
	// (checkpoint restore or cold, per SelfHealing.Checkpoint).
	monitorDown bool
	// monitorCrashes counts poll periods lost to monitor-crash windows.
	monitorCrashes uint64

	// failures holds the instants of the scheduled node failures, for the
	// health signal's fault onset.
	failures []time.Duration
	// health is the per-second availability and recovery signal, nil on a
	// world that cannot fail.
	health *health
}

// New builds a world. algo may be nil for experiments with no autoscaler
// (the §III fixed-allocation microbenchmarks).
func New(cfg Config, algo core.Algorithm) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cl, err := cluster.NewHomogeneous(cfg.Nodes, cfg.NodeTemplate)
	if err != nil {
		return nil, err
	}
	w := &World{
		cfg:      cfg,
		engine:   sim.New(cfg.Seed),
		cluster:  cl,
		lb:       lb.New(cfg.LBPolicy),
		byName:   make(map[string]*serviceRuntime),
		recorder: metrics.NewRecorder(),
		costs:    cost.NewTracker(cfg.Cost),
		reqs:     &workload.RequestPool{},
	}
	w.lb.DistributionOverhead = cfg.DistributionOverhead
	if algo == nil {
		algo = noopAlgorithm{}
	}
	if cfg.Observe {
		w.journal = obs.NewJournal()
	}
	w.faults = faults.New(cfg.Faults)
	w.ctl, err = monitor.NewPlane(cl, algo, cfg.PlaneConfig, w.faults, w.journal, w.removed)
	if err != nil {
		return nil, err
	}
	w.algo = algo
	// Multi-metric manager observability: a structural assertion (rather
	// than a scalermgr import in the hot path types) keeps non-manager runs
	// byte-identical — the observer fires only under Observe, and
	// ManagerRecommendations returns nil for every other algorithm.
	if cfg.Observe {
		if mgr, ok := algo.(recommendObservable); ok {
			mgr.SetRecommendObserver(func(now time.Duration, service, detail string) {
				w.journal.Event(obs.Event{
					At:      now,
					Kind:    obs.EventScalerRecommend,
					Service: service,
					Detail:  detail,
				})
			})
		}
	}
	if cfg.CallGraph.Enabled() || cfg.Resilience.Enabled() {
		w.res = resilience.NewManager(cfg.Resilience, cfg.Seed)
		if w.res != nil && cfg.Observe {
			w.res.OnTransition = func(now time.Duration, edge string, from, to resilience.BreakerState) {
				w.journal.Event(obs.Event{
					At:     now,
					Kind:   breakerEventKind(to),
					Detail: edge + ": " + from.String() + " -> " + to.String(),
				})
			}
		}
		w.graph = newGraphRun(w, cfg.CallGraph)
	}
	if !cfg.HardeningOff && w.faults.Enabled() {
		// The hardened balancer probes backends against the injected outage
		// schedule; the unhardened one routes blind and eats the failures.
		w.lb.HealthCheck = func(now time.Duration, c *container.Container) bool {
			return !w.faults.BackendDown(now, c.Service, c.ID)
		}
	}
	return w, nil
}

// recommendObservable is the structural face of the scaler manager's
// observer hook (scalermgr.Manager implements it); asserting it here keeps
// the wiring independent of which algorithm the world runs.
type recommendObservable interface {
	SetRecommendObserver(func(at time.Duration, service, detail string))
}

// ManagerRecommendations returns the multi-metric scaler manager's latest
// per-scaler recommendations, and nil when any other algorithm drives the
// world — callers (httpapi) emit manager metrics only when non-nil.
func (w *World) ManagerRecommendations() []scalermgr.Recommendation {
	if mgr, ok := w.algo.(interface {
		Recommendations() []scalermgr.Recommendation
	}); ok {
		return mgr.Recommendations()
	}
	return nil
}

// noopAlgorithm never scales; it stands in when experiments drive
// allocations manually.
type noopAlgorithm struct{}

func (noopAlgorithm) Name() string                   { return "static" }
func (noopAlgorithm) Decide(core.Snapshot) core.Plan { return core.Plan{} }

// Engine exposes the simulation engine (for custom scheduled events).
func (w *World) Engine() *sim.Engine { return w.engine }

// Cluster exposes the cluster (for assertions in tests).
func (w *World) Cluster() *cluster.Cluster { return w.cluster }

// Control exposes the control plane: the zone arbiters under their global
// allocator, or the single central arbiter when Config.Zones <= 1.
func (w *World) Control() *monitor.Plane { return w.ctl }

// ZoneEvac returns the zone evacuation / re-adoption counters, nil unless
// the world is zoned with evacuation enabled.
func (w *World) ZoneEvac() *monitor.EvacCounts { return w.ctl.Evac() }

// Recorder exposes the metrics recorder.
func (w *World) Recorder() *metrics.Recorder { return w.recorder }

// AddService registers a microservice with its utilization target and load
// pattern, and deploys its minimum replicas.
func (w *World) AddService(spec workload.ServiceSpec, targetUtil float64, pattern loadgen.Pattern) error {
	ord := w.ctl.ServiceCount()
	if err := w.ctl.AddService(spec, targetUtil); err != nil {
		return err
	}
	rt := &serviceRuntime{spec: spec, ord: ord, name: w.journal.Intern(spec.Name)}
	if pattern != nil {
		gen := loadgen.NewGenerator(spec, pattern, &w.ids)
		gen.Poisson = w.cfg.PoissonArrivals
		gen.ServiceOrd = ord
		gen.Pool = w.reqs
		w.gens = append(w.gens, gen)
	}
	w.services = append(w.services, rt)
	w.stats = append(w.stats, nil)
	w.byName[spec.Name] = rt
	if err := w.ctl.DeployInitial(ord, w.engine.Now()); err != nil {
		return err
	}
	return nil
}

// DeployReplica pins one replica of service to a node with an explicit
// allocation — the §III microbenchmarks use this instead of the autoscaler.
func (w *World) DeployReplica(service, nodeID string, alloc resources.Vector) error {
	return w.ctl.StartReplica(service, nodeID, alloc, w.engine.Now())
}

// AddStressContainer places a stress contender (the paper's progrium-stress
// or network-hog container) on a node. cpuDemand is in cores; netFlows is
// the number of flooding egress flows (0 for none).
func (w *World) AddStressContainer(nodeID string, alloc resources.Vector, cpuDemand float64, netFlows int) error {
	n := w.cluster.Node(nodeID)
	if n == nil {
		return fmt.Errorf("platform: unknown node %q", nodeID)
	}
	w.stressIdx++
	spec := workload.ServiceSpec{
		Name: fmt.Sprintf("stress-%d", w.stressIdx), Kind: workload.KindCPUBound,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 64,
		MinReplicas: 1, MaxReplicas: 1, Timeout: time.Hour,
	}
	c := container.New(spec.Name, spec, nodeID, alloc, 0)
	c.StressCPUDemand = cpuDemand
	c.StressNetFlows = netFlows
	c.MaybeStart(0)
	return n.AddContainer(c)
}

// InjectRequests schedules n requests for the service arriving uniformly
// over the window starting at 'at' — used by the fixed-count (§III)
// microbenchmarks.
//
// Arrivals are coalesced: all n requests share one IndexedEvent closure, and
// requests landing on the same simulated instant share one heap entry
// (ScheduleBatch), so injection costs O(distinct instants) events instead of
// n closures. Request IDs, arrival instants and routing order are identical
// to scheduling each request individually.
func (w *World) InjectRequests(at time.Duration, window time.Duration, service string, n int) error {
	rt, ok := w.byName[service]
	if !ok {
		return fmt.Errorf("platform: unknown service %q", service)
	}
	if n <= 0 {
		return nil
	}
	if window <= 0 {
		window = w.cfg.Tick
	}
	w.recorder.Reserve(service, n)
	reqs := make([]*workload.Request, n)
	for i := range reqs {
		arrive := at + time.Duration(float64(window)*float64(i)/float64(n))
		reqs[i] = w.reqs.New(w.ids.Next(), &rt.spec, rt.ord, arrive)
	}
	fire := func(e *sim.Engine, i int) { w.route(reqs[i]) }
	for i := 0; i < n; {
		j := i + 1
		for j < n && reqs[j].Arrival == reqs[i].Arrival {
			j++
		}
		if err := w.engine.ScheduleBatch(reqs[i].Arrival, i, j-i, fire); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// statsOf returns the recorder cell of the request's service.
func (w *World) statsOf(r *workload.Request) *metrics.ServiceStats {
	s := w.stats[r.ServiceOrd]
	if s == nil {
		s = w.recorder.Stats(r.Service)
		w.stats[r.ServiceOrd] = s
	}
	return s
}

// outcome classifies how a request resolved.
type outcome int

const (
	outcomeCompleted outcome = iota
	// outcomeShed is a refusal by overload shedding or back-pressure.
	outcomeShed
	outcomeDeadline
	outcomeFailed
)

// route admits one externally generated request: a plain request, or in a
// call-graph world the root of a new request tree.
func (w *World) route(req *workload.Request) {
	var n *reqNode
	if g := w.graph; g != nil {
		g.rootGenerated++
		n = g.newNode(req, nil, nil, 0)
	}
	w.admit(req, n)
}

// admit sends one request through the load balancer. n is the request's
// call-graph node (a root or a downstream attempt), nil in a plain world.
// A refused request is booked at once; an admitted node spawns its
// downstream calls.
func (w *World) admit(req *workload.Request, n *reqNode) {
	req.ExtraLatency += w.cfg.BaseLatency
	now := w.engine.Now()
	target, err := w.lb.RouteAt(now, req, w.ctl.RouteView(int(req.ServiceOrd), &w.replicaBuf))
	o := outcomeFailed
	switch {
	case err == nil:
		if w.faults.BackendDown(now, target.Service, target.ID) {
			// The chosen backend is black-holing connections — an outage
			// the balancer's probes have not (or, unhardened, will never)
			// notice.
			w.connFail.Unhealthy++
			break
		}
		// Adaptive shedding keys off active-queue occupancy, not CPU-over-
		// allocation: replicas legitimately burst past their allocation
		// when the node has slack, but an active queue deeper than the
		// deadline can drain is doomed work whatever the CPU counters say.
		// PhaseWait parents are excluded — they hold slots, not resources.
		if lim := target.Spec.QueueLimit; lim > 0 &&
			w.res.ShouldShed(float64(target.ActiveInflight())/float64(lim), target.ID, req.ID) {
			o = outcomeShed
			break
		}
		if f := w.faults.SlowFactor(now, req.Service); f > 1 {
			req.RemainingCPU *= f
		}
		target.Enqueue(req)
		if n != nil {
			n.cont = target
			if n.edge != nil {
				n.edge.stats.Delivered++
			}
			w.graph.spawnChildren(n)
		}
		return
	case errors.Is(err, lb.ErrAllFull):
		// Back-pressure: the saturated tier refuses the admission.
		w.res.CountShed()
		o = outcomeShed
	case errors.Is(err, lb.ErrAllStarting):
		w.connFail.Starting++
	default:
		w.connFail.Absent++
	}
	if n != nil && n.edge != nil {
		n.edge.stats.Dropped++
	}
	w.resolve(req, n, o, now, workload.FailureConnection)
}

// resolve books request r's final outcome: the recorder and the cost
// tracker once, then a plain request goes back to the pool and a call-graph
// node settles its tree. class is the failure class of a non-completion. In
// a call-graph world an outcome for an untracked or already-resolved node
// is stale and ignored.
func (w *World) resolve(r *workload.Request, n *reqNode, o outcome, at time.Duration, class workload.FailureClass) {
	if w.graph != nil {
		if n == nil || n.resolved {
			return
		}
		n.resolved = true
	}
	if o == outcomeCompleted {
		latency := at - r.Arrival + r.ExtraLatency
		if latency < 0 {
			latency = 0
		}
		w.recorder.RecordCompletion(w.statsOf(r), latency)
		w.costs.ObserveCompletion(latency)
	} else {
		w.recorder.RecordFailure(w.statsOf(r), class)
		w.costs.ObserveFailure()
	}
	if n == nil {
		w.reqs.Put(r)
		return
	}
	w.graph.settle(n, o, at)
}

// removed books a request killed with its container, by a scale-in or a
// node failure.
func (w *World) removed(r *workload.Request) {
	w.resolve(r, w.graph.nodeOf(r), outcomeFailed, w.engine.Now(), workload.FailureRemoval)
}

// tick runs one physics step: generate arrivals, advance the cluster,
// record completions/timeouts, sample node stats.
func (w *World) tick(e *sim.Engine) {
	now := e.Now()
	dt := w.cfg.Tick

	for _, gen := range w.gens {
		for _, req := range gen.Arrivals(now, dt, e.Rand()) {
			w.route(req)
		}
	}

	res := w.cluster.Advance(now, dt)
	for _, done := range res.Completed {
		w.resolve(done.Request, w.graph.nodeOf(done.Request), outcomeCompleted, done.At, workload.FailureNone)
	}
	for _, r := range res.TimedOut {
		w.resolve(r, w.graph.nodeOf(r), outcomeDeadline, now+dt, workload.FailureConnection)
	}

	// Machines hosting at least one container count as powered; idle ones
	// are assumed reclaimable (§I's power argument).
	w.costs.ObserveMachines(len(w.cluster.Occupied()), dt)

	w.ctl.Sample()
}

// poll runs one Monitor decision period, then samples the journal when one
// is on. Polls inside a monitor-crash fault window are skipped entirely —
// the control plane is down while the data plane keeps serving — and the
// first poll after the window restarts the Monitor from its last checkpoint
// (or cold). The journal keeps sampling throughout so the outage is visible
// in the run artifacts.
func (w *World) poll(e *sim.Engine) {
	now := e.Now()
	if w.faults.MonitorCrashed(now) {
		w.monitorDown = true
		w.monitorCrashes++
	} else {
		if w.monitorDown {
			w.monitorDown = false
			w.ctl.Restart(now)
		}
		w.ctl.Poll(now)
		w.ctl.MaybeCheckpoint(now)
	}

	if w.journal != nil {
		// Per-service time-series samples, in service registration order so
		// artifact bytes are deterministic.
		for _, rt := range w.services {
			w.replicaBuf = w.ctl.AppendReplicas(w.replicaBuf[:0], rt.ord)
			replicas := w.replicaBuf
			var cpuShares, cpuUsage, netMbps float64
			for _, c := range replicas {
				cpuShares += c.Alloc.CPU
				u := c.LastUsage()
				cpuUsage += u.CPU
				netMbps += u.NetMbps
			}
			// A service with no recorded outcome yet has a nil cell: zeros.
			completed, removal, conn, totalLat := w.stats[rt.ord].Counters()
			w.journal.SampleFor(now, rt.name, len(replicas), cpuShares, cpuUsage, netMbps,
				completed, removal+conn, totalLat)
		}
	}
}

// Run simulates until the horizon (absolute simulated time). It may be
// called repeatedly to step the world forward incrementally; the periodic
// physics and monitor tasks are scheduled exactly once.
func (w *World) Run(horizon time.Duration) error {
	if !w.started {
		if w.graph != nil {
			if err := w.graph.checkServices(); err != nil {
				return err
			}
		}
		if err := w.startHealth(); err != nil {
			return err
		}
		if err := w.engine.SchedulePeriodic(w.cfg.Tick, w.cfg.Tick, w.tick); err != nil {
			return err
		}
		if w.cfg.MonitorPeriod > 0 {
			if err := w.engine.SchedulePeriodic(w.cfg.MonitorPeriod, w.cfg.MonitorPeriod, w.poll); err != nil {
				return err
			}
		}
		w.started = true
	}
	return w.engine.Run(horizon)
}

// RunUntilDrained keeps ticking past the horizon until no requests remain in
// flight (or maxExtra elapses) — fixed-count microbenchmarks use this so
// every injected request resolves.
func (w *World) RunUntilDrained(horizon, maxExtra time.Duration) error {
	if err := w.Run(horizon); err != nil {
		return err
	}
	deadline := horizon + maxExtra
	for w.engine.Now() < deadline {
		if w.inflight() == 0 {
			return nil
		}
		if err := w.engine.Run(w.engine.Now() + 10*w.cfg.Tick); err != nil {
			return err
		}
	}
	return nil
}

func (w *World) inflight() int {
	n := 0
	for _, node := range w.cluster.Occupied() {
		for _, c := range node.Containers() {
			n += c.Inflight()
		}
	}
	return n
}

// Summary returns the aggregate user-perceived performance report.
func (w *World) Summary() metrics.Summary { return w.recorder.Summarize() }

// ClampedEvents reports how many events the engine clamped to "now" because
// a component scheduled them in the past — see sim.Engine.Clamped. Run
// results surface this so stale-timestamp bugs cannot hide in dropped error
// returns.
func (w *World) ClampedEvents() uint64 { return w.engine.Clamped() }

// FaultInjector exposes the fault-injection layer (nil when faults are
// disabled).
func (w *World) FaultInjector() *faults.Injector { return w.faults }

// ConnFailures returns the routing-time connection-failure breakdown.
func (w *World) ConnFailures() ConnFailureBreakdown { return w.connFail }

// Journal returns the decision-trace journal, or nil when Config.Observe was
// off. All Journal methods are nil-safe, so callers may use the result
// unconditionally.
func (w *World) Journal() *obs.Journal { return w.journal }

// CascadeStats returns the call-graph run's root-outcome and per-edge
// counters (zero when no call graph is configured).
func (w *World) CascadeStats() CascadeStats {
	if w.graph == nil {
		return CascadeStats{}
	}
	return w.graph.Stats()
}

// HasCallGraph reports whether this world routes requests through a
// per-service call DAG (the cascade propagation layer).
func (w *World) HasCallGraph() bool { return w.graph != nil }

// Resilience returns the run's resilience manager, nil when no defense is
// enabled. All Manager methods are nil-safe.
func (w *World) Resilience() *resilience.Manager { return w.res }

// CostReport prices the run so far (machine-hours + SLA penalties).
func (w *World) CostReport() cost.Report { return w.costs.Report() }

// ScheduleNodeFailure schedules machine nodeID to fail at the given
// simulated time: every container on it dies (in-flight requests are
// recorded as removal failures) and the Monitor stops querying it. Used by
// the availability-under-churn experiments. A failure scheduled before the
// clock starts also makes the world sample its health signal.
func (w *World) ScheduleNodeFailure(at time.Duration, nodeID string) error {
	w.failures = append(w.failures, at)
	return w.engine.Schedule(at, func(e *sim.Engine) {
		killed, err := w.cluster.RemoveNode(nodeID)
		if err != nil {
			return // already gone
		}
		// Mirror the physical removal into the owning zone's view so the
		// arbiter sees the machine gone.
		w.ctl.NoteNodeRemoved(nodeID)
		if !w.cfg.SelfHealing.Enabled {
			// Legacy out-of-band notification. With self-healing on, the
			// failure detector must discover the death through missed polls.
			w.ctl.DetachNode(nodeID)
		}
		for _, r := range killed {
			w.removed(r)
		}
	})
}

// ScheduleNodeRecovery schedules a fresh machine to join the cluster at the
// given simulated time (the paper's dynamic machine-addition future work).
// A machine config cluster.NewNode would reject is rejected now, so it
// cannot vanish silently when the join fires.
func (w *World) ScheduleNodeRecovery(at time.Duration, cfg cluster.NodeConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return w.engine.Schedule(at, func(e *sim.Engine) {
		_ = w.AddNode(cfg) // a duplicate ID joins nothing
	})
}

// AddNode adds a machine to the cluster now and attaches it to the control
// plane. Added before any service deploys, it is part of the starting
// cluster.
func (w *World) AddNode(cfg cluster.NodeConfig) error {
	if err := w.cluster.AddNode(cfg); err != nil {
		return err
	}
	w.ctl.AttachNode(w.cluster.Node(cfg.ID))
	return nil
}
