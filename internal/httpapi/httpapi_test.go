package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/loadgen"
	"hyscale/internal/platform"
	"hyscale/internal/workload"
)

func testWorld(t *testing.T) *platform.World {
	t.Helper()
	cfg := platform.DefaultConfig(1)
	cfg.Nodes = 4
	w, err := platform.New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.ServiceSpec{
		Name: "api", Kind: workload.KindCPUBound,
		CPUPerRequest: 0.05, MemPerRequest: 2, BaselineMemMB: 100,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
		MinReplicas: 2, MaxReplicas: 6, Timeout: 10 * time.Second,
	}
	if err := w.AddService(spec, 0.5, loadgen.Constant{RPS: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return w
}

func get(t *testing.T, srv *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestHealth(t *testing.T) {
	srv := New(testWorld(t))
	rec := get(t, srv, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["simTime"] != "30s" {
		t.Errorf("body = %v", body)
	}
}

func TestSummary(t *testing.T) {
	srv := New(testWorld(t))
	rec := get(t, srv, "/v1/summary")
	var dto SummaryDTO
	if err := json.Unmarshal(rec.Body.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	if dto.Completed < 100 {
		t.Errorf("completed = %d, want >= 100", dto.Completed)
	}
	if dto.MeanLatencyMs <= 0 {
		t.Error("zero mean latency")
	}
}

func TestServicesListAndDetail(t *testing.T) {
	srv := New(testWorld(t))
	rec := get(t, srv, "/v1/services")
	var list []ServiceDTO
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "api" {
		t.Fatalf("list = %+v", list)
	}
	if len(list[0].Replicas) < 2 {
		t.Errorf("replicas = %d, want >= MinReplicas", len(list[0].Replicas))
	}

	rec = get(t, srv, "/v1/services/api")
	if rec.Code != http.StatusOK {
		t.Fatalf("detail status = %d", rec.Code)
	}
	var dto ServiceDTO
	if err := json.Unmarshal(rec.Body.Bytes(), &dto); err != nil {
		t.Fatal(err)
	}
	for _, r := range dto.Replicas {
		if r.Node == "" || r.State != "running" || r.CPU <= 0 {
			t.Errorf("replica DTO incomplete: %+v", r)
		}
	}

	if rec := get(t, srv, "/v1/services/ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("ghost service status = %d, want 404", rec.Code)
	}
}

func TestNodes(t *testing.T) {
	srv := New(testWorld(t))
	rec := get(t, srv, "/v1/nodes")
	var nodes []NodeDTO
	if err := json.Unmarshal(rec.Body.Bytes(), &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("nodes = %d, want 4", len(nodes))
	}
	total := 0
	for _, n := range nodes {
		if n.Capacity.CPU != 4 {
			t.Errorf("capacity = %v", n.Capacity)
		}
		total += len(n.Containers)
	}
	if total < 2 {
		t.Errorf("containers across nodes = %d, want >= 2", total)
	}
}

func TestManualScale(t *testing.T) {
	w := testWorld(t)
	srv := New(w)

	scale := func(n int) *httptest.ResponseRecorder {
		body, _ := json.Marshal(scaleRequest{Replicas: n})
		req := httptest.NewRequest(http.MethodPost, "/v1/services/api/scale", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	if rec := scale(4); rec.Code != http.StatusOK {
		t.Fatalf("scale up status = %d: %s", rec.Code, rec.Body)
	}
	if got := len(w.Control().Replicas("api")); got != 4 {
		t.Errorf("replicas = %d after scale-up, want 4", got)
	}
	if rec := scale(1); rec.Code != http.StatusOK {
		t.Fatalf("scale down status = %d", rec.Code)
	}
	if got := len(w.Control().Replicas("api")); got != 1 {
		t.Errorf("replicas = %d after scale-down, want 1", got)
	}
}

func TestManualScaleValidation(t *testing.T) {
	srv := New(testWorld(t))
	post := func(path, body string) int {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post("/v1/services/api/scale", "{bad json"); code != http.StatusBadRequest {
		t.Errorf("bad json status = %d", code)
	}
	if code := post("/v1/services/api/scale", `{"replicas":-1}`); code != http.StatusBadRequest {
		t.Errorf("negative replicas status = %d", code)
	}
	if code := post("/v1/services/ghost/scale", `{"replicas":2}`); code != http.StatusNotFound {
		t.Errorf("ghost scale status = %d", code)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv := New(testWorld(t))
	rec := get(t, srv, "/metrics")
	body := rec.Body.String()
	for _, want := range []string{
		"hyscale_requests_total",
		"hyscale_completed_total",
		`hyscale_failures_total{class="removal"}`,
		`hyscale_service_replicas{service="api"}`,
		`hyscale_node_cpu_allocated{node="node-0"}`,
		`hyscale_scaling_actions_total{kind="vertical"}`,
		"hyscale_control_retries_total",
		"hyscale_control_abandoned_total",
		"hyscale_control_stale_snapshots_total",
		"hyscale_control_placement_failures_total",
		`hyscale_connection_failures_total{cause="starting"}`,
		`hyscale_connection_failures_total{cause="absent"}`,
		`hyscale_connection_failures_total{cause="unhealthy"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestCostAndActions(t *testing.T) {
	srv := New(testWorld(t))
	var costBody map[string]any
	if err := json.Unmarshal(get(t, srv, "/v1/cost").Body.Bytes(), &costBody); err != nil {
		t.Fatal(err)
	}
	if costBody["machineHours"].(float64) <= 0 {
		t.Error("zero machine hours")
	}
	var actions map[string]any
	if err := json.Unmarshal(get(t, srv, "/v1/actions").Body.Bytes(), &actions); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scaleOuts", "retries", "abandonedActions", "staleSnapshots"} {
		if _, ok := actions[key]; !ok {
			t.Errorf("actions missing %s", key)
		}
	}
}

// TestConcurrentAccessWithLocker serves requests from several goroutines
// while a mutex-guarded simulation steps forward — the cmd/hyscale-server
// deployment pattern.
func TestConcurrentAccessWithLocker(t *testing.T) {
	w := testWorld(t)
	var mu sync.Mutex
	srv := New(w, WithLocker(&mu))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			mu.Lock()
			// Step the simulation 1 simulated second.
			_ = w.Run(w.Engine().Now() + time.Second)
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				rec := get(t, srv, "/v1/summary")
				if rec.Code != http.StatusOK {
					t.Errorf("status = %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
}

func TestLatencyHistogramEndpoint(t *testing.T) {
	srv := New(testWorld(t))
	rec := get(t, srv, "/v1/latency")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body struct {
		Count   uint64  `json:"count"`
		MeanMs  float64 `json:"meanMs"`
		P95Ms   float64 `json:"p95Ms"`
		Buckets []struct {
			UpperMs float64 `json:"upperMs"`
			Count   uint64  `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Count < 100 || body.MeanMs <= 0 || body.P95Ms < body.MeanMs/2 {
		t.Errorf("latency summary implausible: %+v", body)
	}
	var sum uint64
	for _, b := range body.Buckets {
		sum += b.Count
	}
	if sum != body.Count {
		t.Errorf("bucket counts %d != total %d", sum, body.Count)
	}
}

// observedWorld is testWorld with the decision-trace journal enabled and a
// bursty load so the autoscaler actually acts.
func observedWorld(t *testing.T) *platform.World {
	t.Helper()
	cfg := platform.DefaultConfig(1)
	cfg.Nodes = 4
	cfg.Observe = true
	w, err := platform.New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.ServiceSpec{
		Name: "api", Kind: workload.KindCPUBound,
		CPUPerRequest: 0.08, MemPerRequest: 2, BaselineMemMB: 100,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
		MinReplicas: 1, MaxReplicas: 6, Timeout: 10 * time.Second,
	}
	if err := w.AddService(spec, 0.5, loadgen.Constant{RPS: 25}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return w
}

type timelineBody struct {
	Enabled   bool `json:"enabled"`
	Decisions []struct {
		T       float64 `json:"t"`
		Service string  `json:"service"`
		Kind    string  `json:"kind"`
		Outcome string  `json:"outcome"`
	} `json:"decisions"`
	Outcomes map[string]int `json:"outcomes"`
}

func TestTimeline(t *testing.T) {
	srv := New(observedWorld(t))
	rec := get(t, srv, "/v1/timeline")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body timelineBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !body.Enabled {
		t.Fatal("timeline reports disabled on an observed world")
	}
	if len(body.Decisions) == 0 {
		t.Fatal("no decisions journaled under sustained overload")
	}
	total := 0
	for _, n := range body.Outcomes {
		total += n
	}
	if total != len(body.Decisions) {
		t.Errorf("outcome tally %d != %d decisions", total, len(body.Decisions))
	}
	for i, d := range body.Decisions {
		if d.Service != "api" || d.Kind == "" || d.Outcome == "" {
			t.Fatalf("decision %d malformed: %+v", i, d)
		}
	}

	// The service filter must drop everything for an unknown name.
	rec = get(t, srv, "/v1/timeline?service=nope")
	var filtered timelineBody
	if err := json.Unmarshal(rec.Body.Bytes(), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Decisions) != 0 || !filtered.Enabled {
		t.Errorf("filter leak: %d decisions", len(filtered.Decisions))
	}
}

func TestTimelineDisabled(t *testing.T) {
	srv := New(testWorld(t))
	rec := get(t, srv, "/v1/timeline")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body timelineBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Enabled || len(body.Decisions) != 0 {
		t.Errorf("unobserved world leaked a timeline: %+v", body)
	}
}

func zonedTestWorld(t *testing.T) *platform.World {
	t.Helper()
	cfg := platform.DefaultConfig(1)
	cfg.Nodes = 6
	cfg.Zones = 2
	w, err := platform.New(cfg, core.NewKubernetes(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.ServiceSpec{
		Name: "api", Kind: workload.KindCPUBound,
		CPUPerRequest: 0.05, MemPerRequest: 2, BaselineMemMB: 100,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
		MinReplicas: 2, MaxReplicas: 6, Timeout: 10 * time.Second,
	}
	if err := w.AddService(spec, 0.5, loadgen.Constant{RPS: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestZonesEndpoint(t *testing.T) {
	// Single-monitor worlds have no zones resource.
	if rec := get(t, New(testWorld(t)), "/v1/zones"); rec.Code != http.StatusNotFound {
		t.Fatalf("unzoned /v1/zones status = %d, want 404", rec.Code)
	}

	srv := New(zonedTestWorld(t))
	rec := get(t, srv, "/v1/zones")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body struct {
		Zones []struct {
			Zone     int `json:"zone"`
			Nodes    int `json:"nodes"`
			Replicas int `json:"replicas"`
		} `json:"zones"`
		CrossZone map[string]any `json:"crossZone"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Zones) != 2 {
		t.Fatalf("zones = %d, want 2", len(body.Zones))
	}
	nodes, replicas := 0, 0
	for _, z := range body.Zones {
		nodes += z.Nodes
		replicas += z.Replicas
	}
	if nodes != 6 {
		t.Errorf("zone nodes sum = %d, want 6", nodes)
	}
	if replicas < 2 {
		t.Errorf("zone replicas sum = %d, want >= 2", replicas)
	}
	if body.CrossZone == nil {
		t.Error("missing crossZone counters")
	}
}

func TestMetricsZoneSeries(t *testing.T) {
	// Unzoned exposition must not grow zone series.
	if out := get(t, New(testWorld(t)), "/metrics").Body.String(); strings.Contains(out, "hyscale_zone_") {
		t.Fatal("unzoned /metrics exposes hyscale_zone_ series")
	}
	out := get(t, New(zonedTestWorld(t)), "/metrics").Body.String()
	for _, want := range []string{
		`hyscale_zone_nodes{zone="0"}`,
		`hyscale_zone_replicas{zone="1"}`,
		`hyscale_zone_scaling_actions_total{zone="0",kind="scale_out"}`,
		"hyscale_cross_zone_node_leases_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}
