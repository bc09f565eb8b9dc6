// Package httpapi exposes the autoscaler platform over HTTP: JSON endpoints
// for services, replicas, nodes, metrics and costs, a Prometheus-style
// text endpoint, and a manual scaling hook (the "command-line interface"
// role of §V-C, as a control plane a real deployment would ship with).
//
// The platform itself is single-threaded; callers that serve while a
// simulation advances must interpose a lock via the Locker option (see
// cmd/hyscale-server).
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/obs"
	"hyscale/internal/platform"
	"hyscale/internal/resilience"
	"hyscale/internal/resources"
)

// Server serves the control-plane API for one World.
type Server struct {
	world *platform.World
	mu    sync.Locker
	mux   *http.ServeMux
}

// noopLock is used when the caller does not need synchronisation (e.g. the
// simulation is not advancing while serving).
type noopLock struct{}

func (noopLock) Lock()   {}
func (noopLock) Unlock() {}

// Option customises the server.
type Option func(*Server)

// WithLocker makes every request handler hold l, so the API can be served
// concurrently with a stepping simulation.
func WithLocker(l sync.Locker) Option {
	return func(s *Server) { s.mu = l }
}

// New builds the API server for w.
func New(w *platform.World, opts ...Option) *Server {
	s := &Server{world: w, mu: noopLock{}, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/summary", s.handleSummary)
	s.mux.HandleFunc("GET /v1/cost", s.handleCost)
	s.mux.HandleFunc("GET /v1/actions", s.handleActions)
	s.mux.HandleFunc("GET /v1/services", s.handleServices)
	s.mux.HandleFunc("GET /v1/services/{name}", s.handleService)
	s.mux.HandleFunc("POST /v1/services/{name}/scale", s.handleScale)
	s.mux.HandleFunc("GET /v1/nodes", s.handleNodes)
	s.mux.HandleFunc("GET /v1/zones", s.handleZones)
	s.mux.HandleFunc("GET /v1/latency", s.handleLatency)
	s.mux.HandleFunc("GET /v1/resilience", s.handleResilience)
	s.mux.HandleFunc("GET /v1/timeline", s.handleTimeline)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	now := s.world.Engine().Now()
	s.mu.Unlock()
	s.writeJSON(w, map[string]any{"status": "ok", "simTime": now.String()})
}

// SummaryDTO is the JSON form of the aggregate report.
type SummaryDTO struct {
	Requests           uint64  `json:"requests"`
	Completed          uint64  `json:"completed"`
	FailedPercent      float64 `json:"failedPercent"`
	RemovalFailures    uint64  `json:"removalFailures"`
	ConnectionFailures uint64  `json:"connectionFailures"`
	MeanLatencyMs      float64 `json:"meanLatencyMs"`
	P95LatencyMs       float64 `json:"p95LatencyMs"`
	P99LatencyMs       float64 `json:"p99LatencyMs"`
}

func (s *Server) handleSummary(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	sum := s.world.Summary()
	s.mu.Unlock()
	s.writeJSON(w, SummaryDTO{
		Requests:           sum.Requests,
		Completed:          sum.Completed,
		FailedPercent:      sum.FailedPercent(),
		RemovalFailures:    sum.RemovalFailures,
		ConnectionFailures: sum.ConnectionFailures,
		MeanLatencyMs:      float64(sum.MeanLatency) / float64(time.Millisecond),
		P95LatencyMs:       float64(sum.P95Latency) / float64(time.Millisecond),
		P99LatencyMs:       float64(sum.P99Latency) / float64(time.Millisecond),
	})
}

func (s *Server) handleCost(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	r := s.world.CostReport()
	s.mu.Unlock()
	s.writeJSON(w, map[string]any{
		"machineHours":     r.MachineHours,
		"slaViolations":    r.SLAViolations,
		"failures":         r.Failures,
		"violationPercent": r.ViolationPercent(),
		"machineCost":      r.MachineCost,
		"penaltyCost":      r.PenaltyCost,
		"totalCost":        r.TotalCost,
	})
}

func (s *Server) handleActions(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	c := s.world.Control().Counts()
	rec := s.world.Control().Recovery()
	pending := s.world.Control().PendingRetries()
	s.mu.Unlock()
	s.writeJSON(w, map[string]any{
		"vertical":          c.Vertical,
		"scaleOuts":         c.ScaleOuts,
		"scaleIns":          c.ScaleIns,
		"placementFailures": c.PlacementFailures,
		"retries":           c.Retries,
		"abandonedActions":  c.AbandonedActions,
		"staleSnapshots":    c.StaleSnapshots,
		"pendingRetries":    pending,
		"recovery": map[string]any{
			"suspected":          rec.Suspected,
			"declaredDead":       rec.DeclaredDead,
			"recovered":          rec.Recovered,
			"replicasLost":       rec.ReplicasLost,
			"replaced":           rec.Replaced,
			"readopted":          rec.Readopted,
			"staleDrained":       rec.StaleDrained,
			"reconcileCancelled": rec.ReconcileCancelled,
			"checkpointRestores": rec.CheckpointRestores,
			"coldRestarts":       rec.ColdRestarts,
		},
	})
}

// ReplicaDTO is the JSON form of one replica.
type ReplicaDTO struct {
	ID       string  `json:"id"`
	Node     string  `json:"node"`
	State    string  `json:"state"`
	CPU      float64 `json:"cpuRequest"`
	MemMB    float64 `json:"memLimitMB"`
	NetMbps  float64 `json:"netCapMbps"`
	Inflight int     `json:"inflight"`
	UsageCPU float64 `json:"usageCPU"`
	UsageMem float64 `json:"usageMemMB"`
}

func replicaDTO(c *container.Container) ReplicaDTO {
	u := c.LastUsage()
	return ReplicaDTO{
		ID: c.ID, Node: c.NodeID, State: c.State.String(),
		CPU: c.Alloc.CPU, MemMB: c.Alloc.MemMB, NetMbps: c.Alloc.NetMbps,
		Inflight: c.Inflight(), UsageCPU: u.CPU, UsageMem: u.MemMB,
	}
}

// ServiceDTO is the JSON form of one service.
type ServiceDTO struct {
	Name          string       `json:"name"`
	Replicas      []ReplicaDTO `json:"replicas"`
	Completed     uint64       `json:"completed"`
	FailedPercent float64      `json:"failedPercent"`
	MeanLatencyMs float64      `json:"meanLatencyMs"`
}

func (s *Server) serviceDTO(name string) ServiceDTO {
	dto := ServiceDTO{Name: name, Replicas: []ReplicaDTO{}}
	for _, rep := range s.world.Control().Replicas(name) {
		dto.Replicas = append(dto.Replicas, replicaDTO(rep))
	}
	sum := s.world.Recorder().SummarizeService(name)
	dto.Completed = sum.Completed
	dto.FailedPercent = sum.FailedPercent()
	dto.MeanLatencyMs = float64(sum.MeanLatency) / float64(time.Millisecond)
	return dto
}

func (s *Server) serviceNames() []string {
	names := make([]string, 0)
	for _, ss := range s.world.Recorder().Services() {
		names = append(names, ss.Name)
	}
	// Services with no traffic yet still exist; derive from the cluster.
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, node := range s.world.Cluster().Nodes() {
		for _, c := range node.Containers() {
			if !seen[c.Service] && !strings.HasPrefix(c.Service, "stress-") {
				seen[c.Service] = true
				names = append(names, c.Service)
			}
		}
	}
	sort.Strings(names)
	return names
}

func (s *Server) handleServices(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]ServiceDTO, 0)
	for _, name := range s.serviceNames() {
		out = append(out, s.serviceDTO(name))
	}
	s.mu.Unlock()
	s.writeJSON(w, out)
}

func (s *Server) handleService(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	dto := s.serviceDTO(name)
	s.mu.Unlock()
	if len(dto.Replicas) == 0 && dto.Completed == 0 {
		http.Error(w, fmt.Sprintf("unknown service %q", name), http.StatusNotFound)
		return
	}
	s.writeJSON(w, dto)
}

// scaleRequest is the body of POST /v1/services/{name}/scale.
type scaleRequest struct {
	// Replicas is the desired replica count.
	Replicas int `json:"replicas"`
}

func (s *Server) handleScale(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req scaleRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Replicas < 0 {
		http.Error(w, "replicas must be non-negative", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	reps := s.world.Control().Replicas(name)
	if len(reps) == 0 {
		http.Error(w, fmt.Sprintf("unknown service %q", name), http.StatusNotFound)
		return
	}
	now := s.world.Engine().Now()
	var plan core.Plan
	switch {
	case req.Replicas > len(reps):
		// Place additional replicas on the emptiest nodes, cloning the
		// first replica's allocation.
		alloc := reps[0].Alloc
		for i := len(reps); i < req.Replicas; i++ {
			nodeID := s.pickNode(alloc)
			if nodeID == "" {
				http.Error(w, "no node fits a new replica", http.StatusConflict)
				return
			}
			plan.Actions = append(plan.Actions, core.ScaleOut{Service: name, NodeID: nodeID, Alloc: alloc})
		}
	case req.Replicas < len(reps):
		for i := len(reps) - 1; i >= req.Replicas; i-- {
			plan.Actions = append(plan.Actions, core.ScaleIn{ContainerID: reps[i].ID})
		}
	}
	s.world.Control().Apply(plan, now)
	s.writeJSON(w, map[string]any{"service": name, "replicas": req.Replicas, "actions": len(plan.Actions)})
}

func (s *Server) pickNode(alloc resources.Vector) string {
	best, bestCPU := "", -1.0
	for _, n := range s.world.Cluster().Nodes() {
		a := n.Available()
		if alloc.FitsIn(a) && a.CPU > bestCPU {
			best, bestCPU = n.ID(), a.CPU
		}
	}
	return best
}

// NodeDTO is the JSON form of one machine.
type NodeDTO struct {
	ID         string           `json:"id"`
	Capacity   resources.Vector `json:"capacity"`
	Allocated  resources.Vector `json:"allocated"`
	Available  resources.Vector `json:"available"`
	Containers []string         `json:"containers"`
}

func (s *Server) handleNodes(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]NodeDTO, 0)
	for _, n := range s.world.Cluster().Nodes() {
		dto := NodeDTO{
			ID: n.ID(), Capacity: n.Capacity(),
			Allocated: n.Allocated(), Available: n.Available(),
			Containers: []string{},
		}
		for _, c := range n.Containers() {
			dto.Containers = append(dto.Containers, c.ID)
		}
		out = append(out, dto)
	}
	s.mu.Unlock()
	s.writeJSON(w, out)
}

// handleLatency exports the constant-memory latency histogram: quantile
// estimates plus the non-empty buckets (milliseconds).
func (s *Server) handleLatency(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := s.world.Recorder().LatencyHistogram()
	type bucketDTO struct {
		UpperMs float64 `json:"upperMs"`
		Count   uint64  `json:"count"`
	}
	out := struct {
		Count   uint64      `json:"count"`
		MeanMs  float64     `json:"meanMs"`
		P50Ms   float64     `json:"p50Ms"`
		P95Ms   float64     `json:"p95Ms"`
		P99Ms   float64     `json:"p99Ms"`
		MaxMs   float64     `json:"maxMs"`
		Buckets []bucketDTO `json:"buckets"`
	}{
		Count:   h.Count(),
		MeanMs:  float64(h.Mean()) / float64(time.Millisecond),
		P50Ms:   float64(h.Quantile(0.50)) / float64(time.Millisecond),
		P95Ms:   float64(h.Quantile(0.95)) / float64(time.Millisecond),
		P99Ms:   float64(h.Quantile(0.99)) / float64(time.Millisecond),
		MaxMs:   float64(h.Max()) / float64(time.Millisecond),
		Buckets: []bucketDTO{},
	}
	for _, b := range h.Buckets() {
		out.Buckets = append(out.Buckets, bucketDTO{
			UpperMs: float64(b.UpperBound) / float64(time.Millisecond),
			Count:   b.Count,
		})
	}
	s.mu.Unlock()
	s.writeJSON(w, out)
}

// handleResilience exports the cascading-failure defense state: the cumulative
// counters (shed, retries, denials, deadline misses, short-circuits), every
// call-graph edge's current breaker position, and the cascade's root/edge
// conservation accounting. Worlds without a call graph report enabled=false
// and all-zero counters.
func (s *Server) handleResilience(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	res := s.world.Resilience()
	out := struct {
		Enabled  bool                  `json:"enabled"`
		Counters resilience.Counters   `json:"counters"`
		Breakers map[string]string     `json:"breakers"`
		Cascade  platform.CascadeStats `json:"cascade"`
	}{
		Enabled:  s.world.HasCallGraph(),
		Counters: res.Counters(),
		Breakers: map[string]string{},
		Cascade:  s.world.CascadeStats(),
	}
	for edge, st := range res.BreakerStates(s.world.Engine().Now()) {
		out.Breakers[edge] = st.String()
	}
	s.mu.Unlock()
	s.writeJSON(w, out)
}

// timelineDecision is the JSON form of one journaled decision, with the
// simulated timestamp in seconds first (the same shape as the obs JSONL
// artifact lines).
type timelineDecision struct {
	T float64 `json:"t"`
	obs.Decision
}

// timelineEvent is the JSON form of one journaled self-healing event.
type timelineEvent struct {
	T float64 `json:"t"`
	obs.Event
}

// handleTimeline exports the decision-trace journal (decisions plus
// self-healing events). Without observation enabled
// (platform.Config.Observe / hyscale-server -observe) it reports
// enabled=false and an empty timeline. ?service=NAME filters to one service.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	service := r.URL.Query().Get("service")
	s.mu.Lock()
	j := s.world.Journal()
	out := struct {
		Enabled   bool                `json:"enabled"`
		Decisions []timelineDecision  `json:"decisions"`
		Outcomes  map[obs.Outcome]int `json:"outcomes"`
		Events    []timelineEvent     `json:"events"`
	}{
		Enabled:   j.Enabled(),
		Decisions: []timelineDecision{},
		Outcomes:  make(map[obs.Outcome]int),
		Events:    []timelineEvent{},
	}
	for _, d := range j.Decisions() {
		if service != "" && d.Service != service {
			continue
		}
		out.Decisions = append(out.Decisions, timelineDecision{T: d.At.Seconds(), Decision: d})
		out.Outcomes[d.Outcome]++
	}
	for _, e := range j.Events() {
		if service != "" && e.Service != service {
			continue
		}
		out.Events = append(out.Events, timelineEvent{T: e.At.Seconds(), Event: e})
	}
	s.mu.Unlock()
	s.writeJSON(w, out)
}

// handleZones reports the zoned control plane's per-zone ledgers and the
// global allocator's cross-zone counters; 404 on single-monitor worlds.
func (s *Server) handleZones(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ctl := s.world.Control()
	zs, cz, ev := ctl.ZoneSummaries(), ctl.Cross(), ctl.Evac()
	s.mu.Unlock()
	if zs == nil {
		http.Error(w, "control plane is not zoned", http.StatusNotFound)
		return
	}
	out := map[string]any{"zones": zs, "crossZone": cz}
	if ev != nil {
		out["evac"] = ev
	}
	s.writeJSON(w, out)
}

// handleMetrics renders a Prometheus-style text exposition of the key
// series: request counters, per-service replica gauges and per-node
// allocation gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	sum := s.world.Summary()
	fmt.Fprintf(w, "# TYPE hyscale_requests_total counter\nhyscale_requests_total %d\n", sum.Requests)
	fmt.Fprintf(w, "# TYPE hyscale_completed_total counter\nhyscale_completed_total %d\n", sum.Completed)
	fmt.Fprintf(w, "# TYPE hyscale_failures_total counter\n")
	fmt.Fprintf(w, "hyscale_failures_total{class=\"removal\"} %d\n", sum.RemovalFailures)
	fmt.Fprintf(w, "hyscale_failures_total{class=\"connection\"} %d\n", sum.ConnectionFailures)

	fmt.Fprintf(w, "# TYPE hyscale_service_replicas gauge\n")
	for _, name := range s.serviceNames() {
		fmt.Fprintf(w, "hyscale_service_replicas{service=%q} %d\n", name, len(s.world.Control().Replicas(name)))
	}

	fmt.Fprintf(w, "# TYPE hyscale_node_cpu_allocated gauge\n")
	for _, n := range s.world.Cluster().Nodes() {
		fmt.Fprintf(w, "hyscale_node_cpu_allocated{node=%q} %.3f\n", n.ID(), n.Allocated().CPU)
	}

	c := s.world.Control().Counts()
	fmt.Fprintf(w, "# TYPE hyscale_scaling_actions_total counter\n")
	fmt.Fprintf(w, "hyscale_scaling_actions_total{kind=\"vertical\"} %d\n", c.Vertical)
	fmt.Fprintf(w, "hyscale_scaling_actions_total{kind=\"scale_out\"} %d\n", c.ScaleOuts)
	fmt.Fprintf(w, "hyscale_scaling_actions_total{kind=\"scale_in\"} %d\n", c.ScaleIns)

	fmt.Fprintf(w, "# TYPE hyscale_control_retries_total counter\nhyscale_control_retries_total %d\n", c.Retries)
	fmt.Fprintf(w, "# TYPE hyscale_control_abandoned_total counter\nhyscale_control_abandoned_total %d\n", c.AbandonedActions)
	fmt.Fprintf(w, "# TYPE hyscale_control_stale_snapshots_total counter\nhyscale_control_stale_snapshots_total %d\n", c.StaleSnapshots)
	fmt.Fprintf(w, "# TYPE hyscale_control_placement_failures_total counter\nhyscale_control_placement_failures_total %d\n", c.PlacementFailures)
	fmt.Fprintf(w, "# TYPE hyscale_control_pending_retries gauge\nhyscale_control_pending_retries %d\n", s.world.Control().PendingRetries())

	rec := s.world.Control().Recovery()
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_nodes_suspected_total counter\nhyscale_selfheal_nodes_suspected_total %d\n", rec.Suspected)
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_nodes_dead_total counter\nhyscale_selfheal_nodes_dead_total %d\n", rec.DeclaredDead)
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_nodes_recovered_total counter\nhyscale_selfheal_nodes_recovered_total %d\n", rec.Recovered)
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_replicas_lost_total counter\nhyscale_selfheal_replicas_lost_total %d\n", rec.ReplicasLost)
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_replicas_replaced_total counter\nhyscale_selfheal_replicas_replaced_total %d\n", rec.Replaced)
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_replicas_readopted_total counter\nhyscale_selfheal_replicas_readopted_total %d\n", rec.Readopted)
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_replicas_drained_total counter\nhyscale_selfheal_replicas_drained_total %d\n", rec.StaleDrained)
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_reconciles_cancelled_total counter\nhyscale_selfheal_reconciles_cancelled_total %d\n", rec.ReconcileCancelled)
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_checkpoint_restores_total counter\nhyscale_selfheal_checkpoint_restores_total %d\n", rec.CheckpointRestores)
	fmt.Fprintf(w, "# TYPE hyscale_selfheal_cold_restarts_total counter\nhyscale_selfheal_cold_restarts_total %d\n", rec.ColdRestarts)

	fmt.Fprintf(w, "# TYPE hyscale_node_health gauge\n")
	for _, nc := range s.world.Control().NodeConditions() {
		fmt.Fprintf(w, "hyscale_node_health{node=%q,state=%q} %d\n", nc.Node, nc.Health.String(), int(nc.Health))
	}

	// Zone series only exist on zoned worlds, keeping the single-monitor
	// exposition byte-identical to before the sharded control plane.
	if zs := s.world.Control().ZoneSummaries(); zs != nil {
		fmt.Fprintf(w, "# TYPE hyscale_zone_nodes gauge\n")
		for _, z := range zs {
			fmt.Fprintf(w, "hyscale_zone_nodes{zone=\"%d\"} %d\n", z.Zone, z.Nodes)
		}
		fmt.Fprintf(w, "# TYPE hyscale_zone_services gauge\n")
		for _, z := range zs {
			fmt.Fprintf(w, "hyscale_zone_services{zone=\"%d\"} %d\n", z.Zone, z.Services)
		}
		fmt.Fprintf(w, "# TYPE hyscale_zone_replicas gauge\n")
		for _, z := range zs {
			fmt.Fprintf(w, "hyscale_zone_replicas{zone=\"%d\"} %d\n", z.Zone, z.Replicas)
		}
		fmt.Fprintf(w, "# TYPE hyscale_zone_scaling_actions_total counter\n")
		for _, z := range zs {
			fmt.Fprintf(w, "hyscale_zone_scaling_actions_total{zone=\"%d\",kind=\"vertical\"} %d\n", z.Zone, z.Counts.Vertical)
			fmt.Fprintf(w, "hyscale_zone_scaling_actions_total{zone=\"%d\",kind=\"scale_out\"} %d\n", z.Zone, z.Counts.ScaleOuts)
			fmt.Fprintf(w, "hyscale_zone_scaling_actions_total{zone=\"%d\",kind=\"scale_in\"} %d\n", z.Zone, z.Counts.ScaleIns)
		}
		fmt.Fprintf(w, "# TYPE hyscale_zone_lease_failures_total counter\n")
		for _, z := range zs {
			fmt.Fprintf(w, "hyscale_zone_lease_failures_total{zone=\"%d\"} %d\n", z.Zone, z.LeaseFailures)
		}
		fmt.Fprintf(w, "# TYPE hyscale_zone_evacuated gauge\n")
		for _, z := range zs {
			v := 0
			if z.Evacuated {
				v = 1
			}
			fmt.Fprintf(w, "hyscale_zone_evacuated{zone=\"%d\"} %d\n", z.Zone, v)
		}
		cz := s.world.Control().Cross()
		fmt.Fprintf(w, "# TYPE hyscale_cross_zone_node_leases_total counter\nhyscale_cross_zone_node_leases_total %d\n", cz.NodeLeases)
		fmt.Fprintf(w, "# TYPE hyscale_cross_zone_lease_failures_total counter\nhyscale_cross_zone_lease_failures_total %d\n", cz.LeaseFailures)
		if ev := s.world.Control().Evac(); ev != nil {
			fmt.Fprintf(w, "# TYPE hyscale_zone_evac_zones_total counter\n")
			fmt.Fprintf(w, "hyscale_zone_evac_zones_total{phase=\"evacuated\"} %d\n", ev.ZonesEvacuated)
			fmt.Fprintf(w, "hyscale_zone_evac_zones_total{phase=\"readopted\"} %d\n", ev.ZonesReadopted)
			fmt.Fprintf(w, "# TYPE hyscale_zone_evac_services_total counter\n")
			fmt.Fprintf(w, "hyscale_zone_evac_services_total{phase=\"evacuated\"} %d\n", ev.ServicesEvacuated)
			fmt.Fprintf(w, "hyscale_zone_evac_services_total{phase=\"readopted\"} %d\n", ev.ServicesReadopted)
			fmt.Fprintf(w, "# TYPE hyscale_zone_evac_replicas_displaced_total counter\nhyscale_zone_evac_replicas_displaced_total %d\n", ev.ReplicasDisplaced)
			fmt.Fprintf(w, "# TYPE hyscale_zone_evac_spillover_placements_total counter\nhyscale_zone_evac_spillover_placements_total %d\n", ev.SpilloverPlacements)
		}
	}

	// Manager series only exist when the multi-metric scaler manager is the
	// running algorithm, keeping every other exposition byte-identical.
	if recs := s.world.ManagerRecommendations(); recs != nil {
		fmt.Fprintf(w, "# TYPE hyscale_manager_scaler_desired gauge\n")
		for _, r := range recs {
			fmt.Fprintf(w, "hyscale_manager_scaler_desired{service=%q,scaler=%q} %d\n", r.Service, r.Scaler, r.Desired)
		}
		fmt.Fprintf(w, "# TYPE hyscale_manager_merged_desired gauge\n")
		last := ""
		for _, r := range recs {
			if r.Service == last {
				continue
			}
			last = r.Service
			fmt.Fprintf(w, "hyscale_manager_merged_desired{service=%q} %d\n", r.Service, r.Merged)
		}
	}

	cf := s.world.ConnFailures()
	fmt.Fprintf(w, "# TYPE hyscale_connection_failures_total counter\n")
	fmt.Fprintf(w, "hyscale_connection_failures_total{cause=\"starting\"} %d\n", cf.Starting)
	fmt.Fprintf(w, "hyscale_connection_failures_total{cause=\"absent\"} %d\n", cf.Absent)
	fmt.Fprintf(w, "hyscale_connection_failures_total{cause=\"unhealthy\"} %d\n", cf.Unhealthy)

	// Resilience series only exist on call-graph worlds, so the exposition of
	// every pre-existing scenario is byte-identical to before the layer.
	if s.world.HasCallGraph() {
		res := s.world.Resilience()
		rc := res.Counters()
		fmt.Fprintf(w, "# TYPE hyscale_shed_total counter\nhyscale_shed_total %d\n", rc.Shed)
		fmt.Fprintf(w, "# TYPE hyscale_retries_issued_total counter\nhyscale_retries_issued_total %d\n", rc.Retries)
		fmt.Fprintf(w, "# TYPE hyscale_retries_denied_total counter\nhyscale_retries_denied_total %d\n", rc.RetriesDenied)
		fmt.Fprintf(w, "# TYPE hyscale_deadline_exceeded_total counter\nhyscale_deadline_exceeded_total %d\n", rc.DeadlineExceeded)
		fmt.Fprintf(w, "# TYPE hyscale_breaker_short_circuits_total counter\nhyscale_breaker_short_circuits_total %d\n", rc.ShortCircuited)
		fmt.Fprintf(w, "# TYPE hyscale_breaker_opens_total counter\nhyscale_breaker_opens_total %d\n", rc.BreakerOpens)

		fmt.Fprintf(w, "# TYPE hyscale_breaker_state gauge\n")
		states := res.BreakerStates(s.world.Engine().Now())
		for _, edge := range res.BreakerEdges() {
			fmt.Fprintf(w, "hyscale_breaker_state{edge=%q} %d\n", edge, int(states[edge]))
		}

		cs := s.world.CascadeStats()
		fmt.Fprintf(w, "# TYPE hyscale_cascade_roots_total counter\n")
		fmt.Fprintf(w, "hyscale_cascade_roots_total{outcome=\"generated\"} %d\n", cs.RootGenerated)
		fmt.Fprintf(w, "hyscale_cascade_roots_total{outcome=\"completed\"} %d\n", cs.RootCompleted)
		fmt.Fprintf(w, "hyscale_cascade_roots_total{outcome=\"shed\"} %d\n", cs.RootShed)
		fmt.Fprintf(w, "hyscale_cascade_roots_total{outcome=\"deadline\"} %d\n", cs.RootDeadline)
		fmt.Fprintf(w, "hyscale_cascade_roots_total{outcome=\"failed\"} %d\n", cs.RootFailed)

		fmt.Fprintf(w, "# TYPE hyscale_edge_calls_total counter\n")
		for _, key := range cs.EdgeKeys() {
			e := cs.Edges[key]
			fmt.Fprintf(w, "hyscale_edge_calls_total{edge=%q,result=\"delivered\"} %d\n", key, e.Delivered)
			fmt.Fprintf(w, "hyscale_edge_calls_total{edge=%q,result=\"dropped\"} %d\n", key, e.Dropped)
		}
	}
}
