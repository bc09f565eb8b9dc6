package runner

import (
	"fmt"
	"time"

	"hyscale/internal/cost"
	"hyscale/internal/metrics"
	"hyscale/internal/obs"
	"hyscale/internal/platform"
)

// Result is what one RunSpec produces: the aggregate measurements every
// report row in the repository is built from.
type Result struct {
	Spec RunSpec `json:"spec"`

	Summary metrics.Summary `json:"summary"`
	Cost    cost.Report     `json:"cost"`

	// ClampedEvents counts events the engine had to clamp to "now" because a
	// component scheduled them in the past — the scheduling errors that used
	// to be silently dropped. Non-zero values flag stale-timestamp bugs.
	ClampedEvents uint64 `json:"clampedEvents"`

	// Metrics is the world's metric list (platform.World.Metrics) at the
	// end of the run, read while the World still exists: every counter the
	// run kept — scaling actions, self-healing, zones, evacuation,
	// connection failures, call-graph outcomes and defenses — and the
	// health signal. Read one series with obs.Lookup. Never serialized.
	Metrics []obs.Series `json:"-"`

	// Elapsed is the wall-clock time the run took, filled by Execute.
	Elapsed time.Duration `json:"elapsed"`

	// World is the simulated world after the run, for post-processing
	// (per-service summaries, replica series). Never serialized.
	World *platform.World `json:"-"`

	// Journal is the decision-trace journal (nil unless the spec set
	// Observe). Never serialized; export it with the obs package's JSONL/CSV
	// writers.
	Journal *obs.Journal `json:"-"`
}

// Finalizer is the type of Build's second result, which is always nil.
//
// Deprecated: runs have no finalizers; the type stays only while
// simbench/rep.go reads Build's three results.
type Finalizer func(res *Result)

// Build validates a spec and materialises it into a ready-to-run world.
// Machines that recover at time zero join before any service deploys: they
// are part of the starting cluster. The second result is always nil.
// Callers that just want the measurements should use Run.
func Build(spec RunSpec) (*platform.World, []Finalizer, error) {
	cfg, algo, err := spec.resolve()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	w, err := platform.New(cfg, algo)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	for _, r := range spec.NodeRecoveries {
		if r.At == 0 {
			if err := w.AddNode(r.Config); err != nil {
				return nil, nil, fmt.Errorf("%s: node recovery %s: %w", spec.Name, r.Config.ID, err)
			}
		}
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
		if r.At == 0 {
			continue
		}
		if err := w.ScheduleNodeRecovery(r.At, r.Config); err != nil {
			return nil, nil, fmt.Errorf("%s: node recovery %s: %w", spec.Name, r.Config.ID, err)
		}
	}
	return w, nil, nil
}

// Run builds and executes one spec to completion, harvesting the standard
// measurements and the world's metric list.
func Run(spec RunSpec) (Result, error) {
	w, _, err := Build(spec)
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
	return Result{
		Spec:          spec,
		Summary:       w.Summary(),
		Cost:          w.CostReport(),
		ClampedEvents: w.ClampedEvents(),
		World:         w,
		Journal:       w.Journal(),
		Metrics:       w.Metrics(),
	}, nil
}
