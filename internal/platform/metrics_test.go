package platform

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/faults"
	"hyscale/internal/loadgen"
	"hyscale/internal/monitor"
	"hyscale/internal/obs"
	"hyscale/internal/resilience"
	"hyscale/internal/resources"
	"hyscale/internal/scalermgr"
)

// everyFamilyWorld runs a world that grows every conditional metric family:
// three zones with evacuation under a zone outage, self-healing, a monitor
// crash window, the fan-out call graph with every resilience defense under
// a slow backend, and the scaler manager deciding.
func everyFamilyWorld(t *testing.T) *World {
	t.Helper()
	graph, services := fanoutGraph()
	cfg := DefaultConfig(3)
	cfg.Nodes = 12
	cfg.Zones = 3
	cfg.SelfHealing = monitor.DefaultSelfHealing()
	cfg.Evacuate = true
	cfg.SpilloverZones = 2
	cfg.CallGraph = graph
	cfg.Resilience = resilience.Config{
		Breakers:  &resilience.BreakerConfig{FailuresToOpen: 5, OpenFor: 2 * time.Second},
		Retry:     &resilience.RetryConfig{MaxAttempts: 3, Backoff: 100 * time.Millisecond, Budget: 0.2},
		Deadlines: &resilience.DeadlineConfig{Margin: 50 * time.Millisecond},
		Shedding:  &resilience.ShedConfig{UtilThreshold: 0.2, MaxShed: 0.95},
	}
	cfg.Faults = faults.Config{Seed: 3, Windows: []faults.Window{
		{Kind: faults.KindZoneOutage, Target: "0", From: 60 * time.Second, To: 150 * time.Second},
		{Kind: faults.KindSlowBackend, Target: "db", From: 30 * time.Second, To: 90 * time.Second, Factor: 20},
		{Kind: faults.KindMonitorCrash, From: 170 * time.Second, To: 190 * time.Second},
	}}
	mgr, err := scalermgr.New(core.DefaultConfig(), scalermgr.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(cfg, mgr)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range services {
		var pattern loadgen.Pattern
		if spec.Name == "gateway" {
			pattern = loadgen.Constant{RPS: 10}
		}
		if err := w.AddService(spec, 0.5, pattern); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(4 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMetricsMatchAccessors is the parity reference for World.Metrics:
// every counter in the list equals the field of the struct accessor it
// reports, every accessor field appears exactly once, and no (name, labels)
// pair repeats.
func TestMetricsMatchAccessors(t *testing.T) {
	w := everyFamilyWorld(t)
	ctl := w.Control()
	sum, c, rec, cf, cz := w.Summary(), ctl.Counts(), ctl.Recovery(), w.ConnFailures(), ctl.Cross()
	ev, rc, cs := ctl.Evac(), w.Resilience().Counters(), w.CascadeStats()
	if ev == nil || ev.ZonesEvacuated == 0 || w.monitorCrashes == 0 || rc.Retries == 0 || rec.DeclaredDead == 0 {
		t.Fatalf("world too quiet to check parity: evac %+v, crashes %d, retries %d, dead %d",
			ev, w.monitorCrashes, rc.Retries, rec.DeclaredDead)
	}
	want := map[string]uint64{
		"hyscale_requests_total":                               sum.Requests,
		"hyscale_completed_total":                              sum.Completed,
		`hyscale_failures_total{class="removal"}`:              sum.RemovalFailures,
		`hyscale_failures_total{class="connection"}`:           sum.ConnectionFailures,
		`hyscale_scaling_actions_total{kind="vertical"}`:       c.Vertical,
		`hyscale_scaling_actions_total{kind="scale_out"}`:      c.ScaleOuts,
		`hyscale_scaling_actions_total{kind="scale_in"}`:       c.ScaleIns,
		"hyscale_control_retries_total":                        c.Retries,
		"hyscale_control_abandoned_total":                      c.AbandonedActions,
		"hyscale_control_stale_snapshots_total":                c.StaleSnapshots,
		"hyscale_control_placement_failures_total":             c.PlacementFailures,
		"hyscale_selfheal_nodes_suspected_total":               rec.Suspected,
		"hyscale_selfheal_nodes_dead_total":                    rec.DeclaredDead,
		"hyscale_selfheal_nodes_recovered_total":               rec.Recovered,
		"hyscale_selfheal_replicas_lost_total":                 rec.ReplicasLost,
		"hyscale_selfheal_replicas_replaced_total":             rec.Replaced,
		"hyscale_selfheal_replicas_readopted_total":            rec.Readopted,
		"hyscale_selfheal_replicas_drained_total":              rec.StaleDrained,
		"hyscale_selfheal_reconciles_cancelled_total":          rec.ReconcileCancelled,
		"hyscale_selfheal_checkpoint_restores_total":           rec.CheckpointRestores,
		"hyscale_selfheal_cold_restarts_total":                 rec.ColdRestarts,
		"hyscale_monitor_crash_periods_total":                  w.monitorCrashes,
		"hyscale_cross_zone_node_leases_total":                 cz.NodeLeases,
		"hyscale_cross_zone_lease_failures_total":              cz.LeaseFailures,
		`hyscale_zone_evac_zones_total{phase="evacuated"}`:     ev.ZonesEvacuated,
		`hyscale_zone_evac_zones_total{phase="readopted"}`:     ev.ZonesReadopted,
		`hyscale_zone_evac_services_total{phase="evacuated"}`:  ev.ServicesEvacuated,
		`hyscale_zone_evac_services_total{phase="readopted"}`:  ev.ServicesReadopted,
		"hyscale_zone_evac_replicas_displaced_total":           ev.ReplicasDisplaced,
		"hyscale_zone_evac_spillover_placements_total":         ev.SpilloverPlacements,
		`hyscale_connection_failures_total{cause="starting"}`:  cf.Starting,
		`hyscale_connection_failures_total{cause="absent"}`:    cf.Absent,
		`hyscale_connection_failures_total{cause="unhealthy"}`: cf.Unhealthy,
		"hyscale_shed_total":                                   rc.Shed,
		"hyscale_retries_issued_total":                         rc.Retries,
		"hyscale_retries_denied_total":                         rc.RetriesDenied,
		"hyscale_deadline_exceeded_total":                      rc.DeadlineExceeded,
		"hyscale_breaker_short_circuits_total":                 rc.ShortCircuited,
		"hyscale_breaker_opens_total":                          rc.BreakerOpens,
		`hyscale_cascade_roots_total{outcome="generated"}`:     cs.RootGenerated,
		`hyscale_cascade_roots_total{outcome="completed"}`:     cs.RootCompleted,
		`hyscale_cascade_roots_total{outcome="shed"}`:          cs.RootShed,
		`hyscale_cascade_roots_total{outcome="deadline"}`:      cs.RootDeadline,
		`hyscale_cascade_roots_total{outcome="failed"}`:        cs.RootFailed,
		SeriesAvailabilityUp:                                   w.health.up,
		SeriesAvailabilitySampled:                              w.health.sampled,
	}
	for _, z := range ctl.ZoneSummaries() {
		want[fmt.Sprintf(`hyscale_zone_scaling_actions_total{zone="%d",kind="vertical"}`, z.Zone)] = z.Counts.Vertical
		want[fmt.Sprintf(`hyscale_zone_scaling_actions_total{zone="%d",kind="scale_out"}`, z.Zone)] = z.Counts.ScaleOuts
		want[fmt.Sprintf(`hyscale_zone_scaling_actions_total{zone="%d",kind="scale_in"}`, z.Zone)] = z.Counts.ScaleIns
		want[fmt.Sprintf(`hyscale_zone_lease_failures_total{zone="%d"}`, z.Zone)] = z.LeaseFailures
	}
	for _, key := range cs.EdgeKeys() {
		want[fmt.Sprintf(`hyscale_edge_calls_total{edge=%q,result="delivered"}`, key)] = cs.Edges[key].Delivered
		want[fmt.Sprintf(`hyscale_edge_calls_total{edge=%q,result="dropped"}`, key)] = cs.Edges[key].Dropped
	}

	seen := make(map[string]bool)
	families := make(map[string]bool)
	for _, s := range w.Metrics() {
		key := s.Name
		if s.Labels != "" {
			key += "{" + s.Labels + "}"
		}
		if seen[key] {
			t.Errorf("series %s appears twice", key)
		}
		seen[key] = true
		families[s.Name] = true
		if s.Type != obs.TypeCounter {
			continue
		}
		v, ok := want[key]
		if !ok {
			t.Errorf("counter %s has no accessor in the reference", key)
			continue
		}
		if s.Value != float64(v) {
			t.Errorf("%s = %v, accessor says %d", key, s.Value, v)
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("accessor field %s missing from Metrics", key)
	}
	for _, name := range []string{"hyscale_manager_scaler_desired", "hyscale_manager_merged_desired",
		"hyscale_retry_amplification_ratio", "hyscale_breaker_state", "hyscale_zone_evacuated",
		SeriesReconverge, SeriesGoodputRecovery, SeriesDegraded} {
		if !families[name] {
			t.Errorf("family %s missing from Metrics", name)
		}
	}
}

// TestServiceNamesKeepsStressPrefixedServices: a registered service whose
// name starts with "stress-" is listed and published like any other, while a
// stress contender, a container of no registered service, is not.
func TestServiceNamesKeepsStressPrefixedServices(t *testing.T) {
	w, err := New(smallConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stress-api", "api"} {
		if err := w.AddService(cpuSpec(name), 0.5, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddStressContainer("node-1", resources.Vector{CPU: 1, MemMB: 64}, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := w.ServiceNames(), []string{"api", "stress-api"}; !slices.Equal(got, want) {
		t.Errorf("ServiceNames() = %v, want %v", got, want)
	}
	m := w.Metrics()
	if v, ok := obs.Lookup(m, "hyscale_service_replicas", `service="stress-api"`); !ok || v != 1 {
		t.Errorf(`hyscale_service_replicas{service="stress-api"} = %v (present %v), want 1`, v, ok)
	}
	if _, ok := obs.Lookup(m, "hyscale_service_replicas", `service="stress-1"`); ok {
		t.Error("the stress contender is published as a service")
	}
}
