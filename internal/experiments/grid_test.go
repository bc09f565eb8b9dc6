package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGridRowsDropWorld: no row of a ported grid keeps its World, so a
// paper-sized -all batch never retains every world it ran.
func TestGridRowsDropWorld(t *testing.T) {
	opts := Options{Seed: 1, Scale: 0.01}
	fig6 := func(o Options) (*Grid, error) { return RunFig6(LowBurst, o) }
	for name, run := range map[string]func(Options) (*Grid, error){
		"fig6": fig6, "ablation": RunAblation, "targetutil": RunTargetUtilSweep,
		"chaos": RunChaos, "recovery": RunRecovery, "cascade": RunCascade, "manager": RunManager,
	} {
		g, err := run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(g.Rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		for _, r := range g.Rows {
			if r.World != nil {
				t.Errorf("%s %v: row retains its World", name, r.Labels)
			}
			if len(r.Labels) != len(g.Axes) {
				t.Errorf("%s %v: %d labels for %d axes", name, r.Labels, len(r.Labels), len(g.Axes))
			}
		}
	}
	for _, r := range drSmoke(t, 0).Rows {
		if r.World != nil {
			t.Errorf("dr %v: row retains its World", r.Labels)
		}
	}
}

func TestGridRowLookup(t *testing.T) {
	g := &Grid{Axes: []string{"topology", "algorithm"}, Rows: []Row{
		{Labels: []string{"chain", "hybrid"}},
		{Labels: []string{"fanout", "hybrid"}},
	}}
	if r := g.Row("fanout", "hybrid"); r != &g.Rows[1] {
		t.Errorf("Row(fanout, hybrid) = %v, want the second row", r)
	}
	for _, missing := range [][]string{{"fanout", "network"}, {"fanout"}, {"fanout", "hybrid", "x"}, nil} {
		if r := g.Row(missing...); r != nil {
			t.Errorf("Row(%q) = %v, want nil", missing, r.Labels)
		}
	}
}

func TestGridSpeedup(t *testing.T) {
	g := &Grid{Axes: []string{"algorithm"}, Rows: []Row{{Labels: []string{"a"}}, {Labels: []string{"b"}}}}
	if g.Speedup("a", "b") != 0 {
		t.Error("Speedup with zero latency should be 0")
	}
	g.Rows[0].Summary.MeanLatency = 200 * time.Millisecond
	g.Rows[1].Summary.MeanLatency = 100 * time.Millisecond
	if got := g.Speedup("a", "b"); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
	if g.Speedup("a", "c") != 0 || g.Speedup("c", "b") != 0 {
		t.Error("Speedup with a missing row should be 0")
	}
}

// TestGridCarriesRunReports: an observed grid carries one run report per
// row, in cell order, at any parallelism, and concurrent experiments never
// see each other's reports.
func TestGridCarriesRunReports(t *testing.T) {
	checkReports := func(name string, g *Grid) {
		t.Helper()
		reports := g.Reports()
		if len(reports) != len(g.Rows) {
			t.Fatalf("%s: %d reports for %d rows", name, len(reports), len(g.Rows))
		}
		for i, rep := range reports {
			if rep.Name != g.Rows[i].Spec.Name {
				t.Errorf("%s: report %d is %q, want row %q", name, i, rep.Name, g.Rows[i].Spec.Name)
			}
			if rep.Journal == nil || len(rep.Metrics) == 0 {
				t.Errorf("%s: report %q has no journal or metrics", name, rep.Name)
			}
		}
	}
	for _, parallel := range []int{1, 4} {
		opts := Options{Seed: 1, Scale: 0.01, Parallel: parallel, Observe: true}
		g, err := RunRecovery(opts)
		if err != nil {
			t.Fatal(err)
		}
		checkReports(fmt.Sprintf("recovery at parallel %d", parallel), g)
	}

	opts := Options{Seed: 1, Scale: 0.01, Parallel: 2, Observe: true}
	var (
		wg           sync.WaitGroup
		mem, fig3    *Grid
		memErr, fErr error
	)
	wg.Add(2)
	go func() { defer wg.Done(); mem, memErr = RunMemScaling(opts) }()
	go func() { defer wg.Done(); fig3, fErr = RunFig3(opts) }()
	wg.Wait()
	if memErr != nil || fErr != nil {
		t.Fatal(memErr, fErr)
	}
	checkReports("mem", mem)
	checkReports("fig3", fig3)
	for _, rep := range mem.Reports() {
		if !strings.HasPrefix(rep.Name, "mem/") {
			t.Errorf("mem grid holds report %q", rep.Name)
		}
	}
	for _, rep := range fig3.Reports() {
		if !strings.HasPrefix(rep.Name, "fig3/") {
			t.Errorf("fig3 grid holds report %q", rep.Name)
		}
	}

	unobserved, err := RunMemScaling(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(unobserved.Reports()); n != 0 {
		t.Errorf("unobserved grid carries %d reports", n)
	}
}
