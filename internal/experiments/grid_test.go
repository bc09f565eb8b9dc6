package experiments

import (
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
