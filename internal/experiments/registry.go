package experiments

import (
	"fmt"
	"strings"
)

// registry maps every hyscale-bench -exp id to the Grids it returns, in
// -all order. The entries with all unset run only when named: "macro" is
// Fig. 6 under both load shapes (the CI smoke target) and "scale" is the
// cluster-size sweep.
var registry = []struct {
	id  string
	all bool
	run func(Options) ([]*Grid, error)
}{
	{"fig2", true, one(RunFig2)},
	{"mem", true, one(RunMemScaling)},
	{"fig3", true, one(RunFig3)},
	{"fig6", true, bothShapes(RunFig6)},
	{"fig7", true, bothShapes(RunFig7)},
	{"fig8", true, bothShapes(RunFig8)},
	{"fig9", true, one(func(o Options) (*Grid, error) { return RunFig9(nil, o) })},
	{"fig10", true, one(func(o Options) (*Grid, error) { return RunFig10(nil, o) })},
	{"ablation", true, one(RunAblation)},
	{"monitorperiod", true, one(RunMonitorPeriodSensitivity)},
	{"placement", true, one(RunPlacement)},
	{"churn", true, one(RunNodeChurn)},
	{"stateful", true, one(RunStateful)},
	{"fig3sweep", true, one(RunFig3Sweep)},
	{"targetutil", true, one(RunTargetUtilSweep)},
	{"hetero", true, one(RunHeterogeneous)},
	{"predictive", true, one(RunPredictive)},
	{"lbpolicy", true, one(RunLBPolicy)},
	{"chaos", true, one(RunChaos)},
	{"recovery", true, one(RunRecovery)},
	{"cascade", true, one(RunCascade)},
	{"manager", true, one(RunManager)},
	{"dr", true, one(RunDR)},
	{"macro", false, bothShapes(RunFig6)},
	{"scale", false, one(RunScale)},
}

// one adapts an experiment with a single Grid.
func one(run func(Options) (*Grid, error)) func(Options) ([]*Grid, error) {
	return func(opts Options) ([]*Grid, error) {
		g, err := run(opts)
		if err != nil {
			return nil, err
		}
		return []*Grid{g}, nil
	}
}

// bothShapes adapts a macro figure to its low- and high-burst Grids.
func bothShapes(run func(LoadShape, Options) (*Grid, error)) func(Options) ([]*Grid, error) {
	return func(opts Options) ([]*Grid, error) {
		var grids []*Grid
		for _, shape := range []LoadShape{LowBurst, HighBurst} {
			g, err := run(shape, opts)
			if err != nil {
				return nil, err
			}
			grids = append(grids, g)
		}
		return grids, nil
	}
}

// AllIDs returns the experiments hyscale-bench -all runs, in run order.
func AllIDs() []string {
	var ids []string
	for _, e := range registry {
		if e.all {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// Lookup returns the runner of each id, in order. It rejects an unknown or
// empty id before anything runs, and its error lists every valid id.
func Lookup(ids []string) ([]func(Options) ([]*Grid, error), error) {
	runs := make([]func(Options) ([]*Grid, error), len(ids))
	for i, id := range ids {
		for _, e := range registry {
			if e.id == id {
				runs[i] = e.run
			}
		}
		if runs[i] == nil {
			valid := make([]string, len(registry))
			for j, e := range registry {
				valid[j] = e.id
			}
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
		}
	}
	return runs, nil
}
