package experiments

import (
	"strings"
	"testing"
)

// TestManagerParallelInvariance: the manager pricing table must be
// byte-identical for any worker count — the repo-wide determinism contract
// extends to the scalermgr algorithms and their cost allocator. The
// -parallel 1 render is also the manager golden of TestExperimentTableGoldens.
func TestManagerParallelInvariance(t *testing.T) {
	render := func(parallel int) *Table {
		res, err := RunManager(Options{Seed: 1, Scale: 0.02, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res.Table()
	}
	baseTable := render(1)
	checkGolden(t, "golden_manager_table.txt", baseTable)
	base := baseTable.String()
	for _, p := range []int{4, 8} {
		if got := render(p).String(); got != base {
			t.Errorf("-parallel %d diverged:\n%s\nvs\n%s", p, got, base)
		}
	}
	for _, want := range []string{"manager-cost", "mixed-high-burst", "chaos-r1.0", "cascade-", "SLO attain %"} {
		if !strings.Contains(base, want) {
			t.Errorf("table missing %q:\n%s", want, base)
		}
	}
}

// TestManagerGridShape: every workload cell carries all six algorithms and
// the cost ledger is populated (machine-hours accrue on every run).
func TestManagerGridShape(t *testing.T) {
	res, err := RunManager(Options{Seed: 2, Scale: 0.01, Parallel: 0})
	if err != nil {
		t.Fatal(err)
	}
	byWorkload := map[string]int{}
	for i := range res.Rows {
		o := &res.Rows[i]
		wl, algo := o.Labels[0], o.Labels[1]
		byWorkload[wl]++
		if o.Cost.MachineHours <= 0 {
			t.Errorf("%s/%s: zero machine-hours in cost report", wl, algo)
		}
		if slo := sloAttainPercent(o); slo < 0 || slo > 100 {
			t.Errorf("%s/%s: SLO attainment %.2f out of range", wl, algo, slo)
		}
	}
	want := len(managerAlgorithms())
	for wl, n := range byWorkload {
		if n != want {
			t.Errorf("workload %s has %d outcomes, want %d", wl, n, want)
		}
	}
	if len(byWorkload) != 5 {
		t.Errorf("grid has %d workloads, want 5 (3 macro + cascade + chaos)", len(byWorkload))
	}
}
