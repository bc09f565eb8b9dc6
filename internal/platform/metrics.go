package platform

import (
	"fmt"
	"math"
	"sort"

	"hyscale/internal/monitor"
	"hyscale/internal/obs"
)

// seriesList accumulates the series of World.Metrics.
type seriesList []obs.Series

// family starts a metric family and returns its sample adder.
func (l *seriesList) family(t obs.Type, name, help string) func(labels string, v float64) {
	return func(labels string, v float64) {
		*l = append(*l, obs.Series{Name: name, Type: t, Help: help, Labels: labels, Value: v})
	}
}

// counter adds an unlabelled counter family.
func (l *seriesList) counter(name, help string, v uint64) {
	l.family(obs.TypeCounter, name, help)("", float64(v))
}

// Metrics returns every series the run reports, in one deterministic order:
// the one list /metrics, the -report control-plane line and hyscale-sim's
// summary render. It is built on each call from the counters the layers
// already keep, so no hot path pays for it. Families stay conditional on
// the world's shape: zone and evacuation series exist only on zoned worlds,
// manager series only under the scaler manager, and resilience and cascade
// series only on call-graph worlds, and the health series only on worlds
// that can fail.
func (w *World) Metrics() []obs.Series {
	var l seriesList
	sum := w.Summary()
	l.counter("hyscale_requests_total", "Requests generated.", sum.Requests)
	l.counter("hyscale_completed_total", "Requests completed.", sum.Completed)
	failures := l.family(obs.TypeCounter, "hyscale_failures_total", "Failed requests by failure class.")
	failures(`class="removal"`, float64(sum.RemovalFailures))
	failures(`class="connection"`, float64(sum.ConnectionFailures))

	ctl := w.ctl
	replicas := l.family(obs.TypeGauge, "hyscale_service_replicas", "Live replicas per service.")
	for _, name := range w.ServiceNames() {
		replicas(fmt.Sprintf("service=%q", name), float64(ctl.ReplicaCount(name)))
	}
	allocated := l.family(obs.TypeGauge, "hyscale_node_cpu_allocated", "CPU cores allocated on each node.")
	for _, n := range w.cluster.Nodes() {
		allocated(fmt.Sprintf("node=%q", n.ID()), math.Round(n.Allocated().CPU*1000)/1000)
	}

	c := ctl.Counts()
	actions := l.family(obs.TypeCounter, "hyscale_scaling_actions_total", "Scaling actions applied, by kind.")
	actions(`kind="vertical"`, float64(c.Vertical))
	actions(`kind="scale_out"`, float64(c.ScaleOuts))
	actions(`kind="scale_in"`, float64(c.ScaleIns))
	l.counter("hyscale_control_retries_total", "Re-executed attempts of failed scaling actions.", c.Retries)
	l.counter("hyscale_control_abandoned_total", "Scaling actions dropped after their retry budget.", c.AbandonedActions)
	l.counter("hyscale_control_stale_snapshots_total", "Node reports served from the last-known cache.", c.StaleSnapshots)
	l.counter("hyscale_control_placement_failures_total", "Scale-outs whose target node no longer fit.", c.PlacementFailures)
	l.family(obs.TypeGauge, "hyscale_control_pending_retries", "Actions waiting in the retry queue.")("", float64(ctl.PendingRetries()))

	rec := ctl.Recovery()
	l.counter("hyscale_selfheal_nodes_suspected_total", "Nodes the failure detector suspected.", rec.Suspected)
	l.counter("hyscale_selfheal_nodes_dead_total", "Nodes the failure detector declared dead.", rec.DeclaredDead)
	l.counter("hyscale_selfheal_nodes_recovered_total", "Dead or suspect nodes that came back.", rec.Recovered)
	l.counter("hyscale_selfheal_replicas_lost_total", "Replicas excised from dead nodes.", rec.ReplicasLost)
	l.counter("hyscale_selfheal_replicas_replaced_total", "Lost replicas the reconciler re-placed.", rec.Replaced)
	l.counter("hyscale_selfheal_replicas_readopted_total", "Survivors taken back after a node recovered.", rec.Readopted)
	l.counter("hyscale_selfheal_replicas_drained_total", "Survivors drained because their replacement already ran.", rec.StaleDrained)
	l.counter("hyscale_selfheal_reconciles_cancelled_total", "Queued re-placements cancelled by a recovery.", rec.ReconcileCancelled)
	l.counter("hyscale_selfheal_checkpoint_restores_total", "Monitor crashes that ended in a checkpoint restore.", rec.CheckpointRestores)
	l.counter("hyscale_selfheal_cold_restarts_total", "Monitor crashes that ended in a cold restart.", rec.ColdRestarts)
	l.counter("hyscale_monitor_crash_periods_total", "Poll periods lost to monitor-crash fault windows.", w.monitorCrashes)
	health := l.family(obs.TypeGauge, "hyscale_node_health", "Failure-detector state per node (0 healthy, 1 suspect, 2 dead).")
	for _, nc := range ctl.NodeConditions() {
		health(fmt.Sprintf("node=%q,state=%q", nc.Node, nc.Health.String()), float64(nc.Health))
	}

	if zs := ctl.ZoneSummaries(); zs != nil {
		perZone := func(t obs.Type, name, help string, v func(z monitor.ZoneSummary) float64) {
			add := l.family(t, name, help)
			for _, z := range zs {
				add(fmt.Sprintf(`zone="%d"`, z.Zone), v(z))
			}
		}
		perZone(obs.TypeGauge, "hyscale_zone_nodes", "Nodes per zone.", func(z monitor.ZoneSummary) float64 { return float64(z.Nodes) })
		perZone(obs.TypeGauge, "hyscale_zone_services", "Services homed in each zone.", func(z monitor.ZoneSummary) float64 { return float64(z.Services) })
		perZone(obs.TypeGauge, "hyscale_zone_replicas", "Live replicas per zone.", func(z monitor.ZoneSummary) float64 { return float64(z.Replicas) })
		zoneActions := l.family(obs.TypeCounter, "hyscale_zone_scaling_actions_total", "Scaling actions applied per zone, by kind.")
		for _, z := range zs {
			zoneActions(fmt.Sprintf(`zone="%d",kind="vertical"`, z.Zone), float64(z.Counts.Vertical))
			zoneActions(fmt.Sprintf(`zone="%d",kind="scale_out"`, z.Zone), float64(z.Counts.ScaleOuts))
			zoneActions(fmt.Sprintf(`zone="%d",kind="scale_in"`, z.Zone), float64(z.Counts.ScaleIns))
		}
		perZone(obs.TypeCounter, "hyscale_zone_lease_failures_total", "Node-lease attempts per zone that found no movable machine.",
			func(z monitor.ZoneSummary) float64 { return float64(z.LeaseFailures) })
		perZone(obs.TypeGauge, "hyscale_zone_evacuated", "Whether each zone is ruled down and evacuated (1) or not (0).", func(z monitor.ZoneSummary) float64 {
			if z.Evacuated {
				return 1
			}
			return 0
		})
		cz := ctl.Cross()
		l.counter("hyscale_cross_zone_node_leases_total", "Idle machines leased between zones.", cz.NodeLeases)
		l.counter("hyscale_cross_zone_lease_failures_total", "Node-lease attempts that found no movable machine.", cz.LeaseFailures)
		if ev := ctl.Evac(); ev != nil {
			zones := l.family(obs.TypeCounter, "hyscale_zone_evac_zones_total", "Zones evacuated and re-adopted.")
			zones(`phase="evacuated"`, float64(ev.ZonesEvacuated))
			zones(`phase="readopted"`, float64(ev.ZonesReadopted))
			services := l.family(obs.TypeCounter, "hyscale_zone_evac_services_total", "Services re-homed out of and back into a zone.")
			services(`phase="evacuated"`, float64(ev.ServicesEvacuated))
			services(`phase="readopted"`, float64(ev.ServicesReadopted))
			l.counter("hyscale_zone_evac_replicas_displaced_total", "Re-placements carried across a zone boundary by an evacuation.", ev.ReplicasDisplaced)
			l.counter("hyscale_zone_evac_spillover_placements_total", "Displaced replicas placed beyond the primary target zone.", ev.SpilloverPlacements)
		}
	}

	if recs := w.ManagerRecommendations(); recs != nil {
		desired := l.family(obs.TypeGauge, "hyscale_manager_scaler_desired", "Each scaler's latest replica recommendation per service.")
		for _, r := range recs {
			desired(fmt.Sprintf("service=%q,scaler=%q", r.Service, r.Scaler), float64(r.Desired))
		}
		merged := l.family(obs.TypeGauge, "hyscale_manager_merged_desired", "The merged replica recommendation per service.")
		for i, r := range recs {
			if i == 0 || r.Service != recs[i-1].Service {
				merged(fmt.Sprintf("service=%q", r.Service), float64(r.Merged))
			}
		}
	}

	cf := w.connFail
	conn := l.family(obs.TypeCounter, "hyscale_connection_failures_total", "Connection failures at routing, by cause.")
	conn(`cause="starting"`, float64(cf.Starting))
	conn(`cause="absent"`, float64(cf.Absent))
	conn(`cause="unhealthy"`, float64(cf.Unhealthy))

	if w.HasCallGraph() {
		rc := w.res.Counters()
		l.counter("hyscale_shed_total", "Admissions refused by load shedding or back-pressure.", rc.Shed)
		l.counter("hyscale_retries_issued_total", "Downstream call retries admitted.", rc.Retries)
		l.counter("hyscale_retries_denied_total", "Downstream call retries the retry budget refused.", rc.RetriesDenied)
		l.counter("hyscale_deadline_exceeded_total", "Requests abandoned at their deadline.", rc.DeadlineExceeded)
		l.counter("hyscale_breaker_short_circuits_total", "Calls an open circuit breaker failed fast.", rc.ShortCircuited)
		l.counter("hyscale_breaker_opens_total", "Circuit-breaker transitions to open.", rc.BreakerOpens)
		l.family(obs.TypeGauge, "hyscale_retry_amplification_ratio", "Call attempts per first attempt.")("", rc.Amplification())
		breakers := l.family(obs.TypeGauge, "hyscale_breaker_state", "Circuit-breaker state per edge (0 closed, 1 open, 2 half-open).")
		states := w.res.BreakerStates(w.engine.Now())
		for _, edge := range w.res.BreakerEdges() {
			breakers(fmt.Sprintf("edge=%q", edge), float64(states[edge]))
		}

		cs := w.CascadeStats()
		roots := l.family(obs.TypeCounter, "hyscale_cascade_roots_total", "Root requests by outcome.")
		roots(`outcome="generated"`, float64(cs.RootGenerated))
		roots(`outcome="completed"`, float64(cs.RootCompleted))
		roots(`outcome="shed"`, float64(cs.RootShed))
		roots(`outcome="deadline"`, float64(cs.RootDeadline))
		roots(`outcome="failed"`, float64(cs.RootFailed))
		calls := l.family(obs.TypeCounter, "hyscale_edge_calls_total", "Call attempts per call-graph edge, by result (issued = delivered + dropped).")
		for _, key := range cs.EdgeKeys() {
			e := cs.Edges[key]
			calls(fmt.Sprintf("edge=%q,result=\"delivered\"", key), float64(e.Delivered))
			calls(fmt.Sprintf("edge=%q,result=\"dropped\"", key), float64(e.Dropped))
		}
	}
	if w.health != nil {
		w.health.metrics(&l)
	}
	return l
}

// ServiceNames returns every service the world knows, sorted: the services
// with recorded traffic plus any registered service with a container in the
// cluster. Stress contenders are containers of no registered service.
func (w *World) ServiceNames() []string {
	names := make([]string, 0)
	for _, ss := range w.recorder.Services() {
		names = append(names, ss.Name)
	}
	// Services with no traffic yet still exist; derive from the cluster.
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, node := range w.cluster.Nodes() {
		for _, c := range node.Containers() {
			if _, registered := w.byName[c.Service]; registered && !seen[c.Service] {
				seen[c.Service] = true
				names = append(names, c.Service)
			}
		}
	}
	sort.Strings(names)
	return names
}
