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
	"sync"
	"time"

	"hyscale/internal/container"
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

func (s *Server) handleServices(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]ServiceDTO, 0)
	for _, name := range s.world.ServiceNames() {
		out = append(out, s.serviceDTO(name))
	}
	s.mu.Unlock()
	s.writeJSON(w, out)
}

func (s *Server) handleService(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	known := s.world.Control().Registered(name)
	dto := s.serviceDTO(name)
	s.mu.Unlock()
	if !known {
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
	ctl := s.world.Control()
	if !ctl.Registered(name) {
		http.Error(w, fmt.Sprintf("unknown service %q", name), http.StatusNotFound)
		return
	}
	actions := req.Replicas - ctl.ReplicaCount(name)
	if err := ctl.Scale(name, req.Replicas, s.world.Engine().Now()); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.writeJSON(w, map[string]any{"service": name, "replicas": req.Replicas, "actions": max(actions, -actions)})
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
	j.EachDecision(func(d obs.Decision) bool {
		if service == "" || d.Service == service {
			out.Decisions = append(out.Decisions, timelineDecision{T: d.At.Seconds(), Decision: d})
			out.Outcomes[d.Outcome]++
		}
		return true
	})
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

// handleMetrics renders the world's metric list (platform.World.Metrics)
// in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	series := s.world.Metrics()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// A failed write means the client went away; no one is left to tell.
	_ = obs.WritePrometheus(w, series)
}
