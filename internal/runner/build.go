package runner

import (
	"fmt"
	"time"

	"hyscale/internal/cost"
	"hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/obs"
	"hyscale/internal/platform"
	"hyscale/internal/resilience"
)

// Result is what one RunSpec produces: the aggregate measurements every
// report row in the repository is built from.
type Result struct {
	Spec RunSpec `json:"spec"`

	Summary  metrics.Summary               `json:"summary"`
	Actions  monitor.ActionCounts          `json:"actions"`
	Recovery monitor.RecoveryCounts        `json:"recovery"`
	Cost     cost.Report                   `json:"cost"`
	ConnFail platform.ConnFailureBreakdown `json:"connFail"`

	// MonitorCrashes counts poll periods lost to monitor-crash fault windows.
	MonitorCrashes uint64 `json:"monitorCrashes,omitempty"`

	// PendingRetries is the retry-queue depth at the end of the run.
	PendingRetries int `json:"pendingRetries,omitempty"`

	// ClampedEvents counts events the engine had to clamp to "now" because a
	// component scheduled them in the past — the scheduling errors that used
	// to be silently dropped. Non-zero values flag stale-timestamp bugs.
	ClampedEvents uint64 `json:"clampedEvents"`

	// Cascade holds the call-graph run's root-outcome and per-edge
	// accounting (nil unless the spec configured a call graph).
	Cascade *platform.CascadeStats `json:"cascade,omitempty"`

	// Resilience holds the cascade-defense counters: shed, retries, retry
	// denials, deadline misses, breaker short-circuits and opens (nil unless
	// the spec configured a call graph).
	Resilience *resilience.Counters `json:"resilience,omitempty"`

	// Zones holds per-zone merged ledgers when the spec ran a zoned control
	// plane (Platform.Zones > 1); nil for single-zone runs.
	Zones []monitor.ZoneSummary `json:"zones,omitempty"`

	// CrossZone holds the global allocator's counters for zoned runs.
	CrossZone *monitor.CrossZoneCounts `json:"crossZone,omitempty"`

	// ZoneEvac holds the zone evacuation / re-adoption counters (nil unless
	// the spec enabled Platform.Evacuate on a zoned run).
	ZoneEvac *monitor.EvacCounts `json:"zoneEvac,omitempty"`

	// Extra holds hook-harvested measurements (e.g. "availabilityPercent"
	// from the experiments' health probe).
	Extra map[string]float64 `json:"extra,omitempty"`

	// Elapsed is the wall-clock time the run took, filled by the Executor.
	Elapsed time.Duration `json:"elapsed"`

	// World is the simulated world after the run, for post-processing
	// (per-service summaries, replica series). Never serialized.
	World *platform.World `json:"-"`

	// Journal is the decision-trace journal (nil unless the spec set
	// Observe). Never serialized; export it with the obs package's JSONL/CSV
	// writers.
	Journal *obs.Journal `json:"-"`
}

// Build validates a spec and materialises it into a ready-to-run world plus
// the finalizers of its hooks. Callers that just want the measurements should
// use Run.
func Build(spec RunSpec) (*platform.World, []Finalizer, error) {
	cfg, algo, err := spec.resolve()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	w, err := platform.New(cfg, algo)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	for _, s := range spec.Services {
		pattern, _ := s.Load.Pattern() // checked by resolve
		if err := w.AddService(s.Spec, s.Target, pattern); err != nil {
			return nil, nil, fmt.Errorf("%s/%s: %w", spec.Name, s.Spec.Name, err)
		}
	}
	for _, p := range spec.Pinned {
		if err := w.DeployReplica(p.Service, p.Node, p.Alloc); err != nil {
			return nil, nil, fmt.Errorf("%s: pin %s on %s: %w", spec.Name, p.Service, p.Node, err)
		}
	}
	for _, st := range spec.Stress {
		if err := w.AddStressContainer(st.Node, st.Alloc, st.CPUDemand, st.NetFlows); err != nil {
			return nil, nil, fmt.Errorf("%s: stress on %s: %w", spec.Name, st.Node, err)
		}
	}
	for _, in := range spec.Inject {
		if err := w.InjectRequests(in.At, in.Window, in.Service, in.Count); err != nil {
			return nil, nil, fmt.Errorf("%s: inject %s: %w", spec.Name, in.Service, err)
		}
	}
	for _, f := range spec.NodeFailures {
		if err := w.ScheduleNodeFailure(f.At, f.Node); err != nil {
			return nil, nil, fmt.Errorf("%s: node failure %s: %w", spec.Name, f.Node, err)
		}
	}
	for _, r := range spec.NodeRecoveries {
		if err := w.ScheduleNodeRecovery(r.At, r.Config); err != nil {
			return nil, nil, fmt.Errorf("%s: node recovery %s: %w", spec.Name, r.Config.ID, err)
		}
	}
	var fins []Finalizer
	for _, name := range spec.Hooks {
		h, err := lookupHook(name)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		fin, err := h(w, spec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: hook %s: %w", spec.Name, name, err)
		}
		if fin != nil {
			fins = append(fins, fin)
		}
	}
	return w, fins, nil
}

// Run builds and executes one spec to completion, harvesting the standard
// measurements plus any hook finalizer output.
func Run(spec RunSpec) (Result, error) {
	w, fins, err := Build(spec)
	if err != nil {
		return Result{}, err
	}
	if spec.Duration <= 0 {
		return Result{}, fmt.Errorf("%s: run duration must be positive", spec.Name)
	}
	if spec.DrainExtra > 0 {
		err = w.RunUntilDrained(spec.Duration, spec.DrainExtra)
	} else {
		err = w.Run(spec.Duration)
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	ctl := w.Control()
	res := Result{
		Spec:           spec,
		Summary:        w.Summary(),
		Actions:        ctl.Counts(),
		Recovery:       ctl.Recovery(),
		Cost:           w.CostReport(),
		ConnFail:       w.ConnFailures(),
		MonitorCrashes: w.MonitorCrashes(),
		PendingRetries: ctl.PendingRetries(),
		ClampedEvents:  w.ClampedEvents(),
		World:          w,
		Journal:        w.Journal(),
	}
	if zs := ctl.ZoneSummaries(); zs != nil {
		res.Zones = zs
		cz := ctl.Cross()
		res.CrossZone = &cz
		res.ZoneEvac = ctl.Evac()
	}
	if w.HasCallGraph() {
		cs := w.CascadeStats()
		rc := w.Resilience().Counters()
		res.Cascade = &cs
		res.Resilience = &rc
	}
	for _, fin := range fins {
		fin(&res)
	}
	return res, nil
}
