package experiments

import (
	"fmt"
	"strings"
)

// registry maps every hyscale-bench -exp id to the tables it renders, in
// -all order. The entries with all unset run only when named: "macro" is
// Fig. 6 under both load shapes (the CI smoke target) and "scale" is the
// cluster-size sweep.
var registry = []struct {
	id  string
	all bool
	run func(Options) ([]*Table, error)
}{
	{"fig2", true, table(RunFig2)},
	{"mem", true, table(RunMemScaling)},
	{"fig3", true, table(RunFig3)},
	{"fig6", true, bothShapes(RunFig6)},
	{"fig7", true, bothShapes(RunFig7)},
	{"fig8", true, bothShapes(RunFig8)},
	{"fig9", true, table(func(o Options) (*Fig9Result, error) { return RunFig9(nil, o) })},
	{"fig10", true, table(func(o Options) (*Grid, error) { return RunFig10(nil, o) })},
	{"ablation", true, costTable(RunAblation)},
	{"monitorperiod", true, costTable(RunMonitorPeriodSensitivity)},
	{"placement", true, costTable(RunPlacement)},
	{"churn", true, costTable(RunNodeChurn)},
	{"stateful", true, costTable(RunStateful)},
	{"fig3sweep", true, table(RunFig3Sweep)},
	{"targetutil", true, table(RunTargetUtilSweep)},
	{"hetero", true, costTable(RunHeterogeneous)},
	{"predictive", true, costTable(RunPredictive)},
	{"lbpolicy", true, costTable(RunLBPolicy)},
	{"chaos", true, table(RunChaos)},
	{"recovery", true, table(RunRecovery)},
	{"cascade", true, table(RunCascade)},
	{"manager", true, table(RunManager)},
	{"dr", true, table(RunDR)},
	{"macro", false, bothShapes(RunFig6)},
	{"scale", false, table(RunScale)},
}

// table adapts an experiment with one rendered table.
func table[R interface{ Table() *Table }](run func(Options) (R, error)) func(Options) ([]*Table, error) {
	return func(opts Options) ([]*Table, error) {
		r, err := run(opts)
		if err != nil {
			return nil, err
		}
		return []*Table{r.Table()}, nil
	}
}

// costTable adapts a macro grid rendered with the cost columns.
func costTable(run func(Options) (*Grid, error)) func(Options) ([]*Table, error) {
	return func(opts Options) ([]*Table, error) {
		g, err := run(opts)
		if err != nil {
			return nil, err
		}
		return []*Table{CostTableFor(g)}, nil
	}
}

// bothShapes adapts a macro figure to its low- and high-burst tables.
func bothShapes(run func(LoadShape, Options) (*Grid, error)) func(Options) ([]*Table, error) {
	return func(opts Options) ([]*Table, error) {
		var tables []*Table
		for _, shape := range []LoadShape{LowBurst, HighBurst} {
			g, err := run(shape, opts)
			if err != nil {
				return nil, err
			}
			tables = append(tables, g.Table())
		}
		return tables, nil
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
func Lookup(ids []string) ([]func(Options) ([]*Table, error), error) {
	runs := make([]func(Options) ([]*Table, error), len(ids))
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
