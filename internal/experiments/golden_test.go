package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hyscale/internal/monitor"
	"hyscale/internal/obs"
)

// checkGolden compares rendered table bytes against testdata/<file>, or
// rewrites the file when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, file string, tab *Table) {
	t.Helper()
	got := []byte(tab.String() + tab.CSV())
	goldenPath := filepath.Join("testdata", file)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(want) != string(got) {
		t.Fatalf("%s diverged from its golden:\n--- want ---\n%s\n--- got ---\n%s", file, want, got)
	}
}

// TestFig2TableGolden pins the rendered Fig-2 table bytes against a committed
// golden generated BEFORE the hot-path overhaul. Fig 2 drives the
// InjectRequests path — the exact code the event-coalescing change rewrites —
// so byte equality here proves coalesced arrivals reproduce the original
// per-request-closure schedule, not merely a self-consistent one.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run TestFig2TableGolden
func TestFig2TableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r, err := RunFig2(shapeOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_fig2_table.txt", r.Table())
}

// TestExperimentTableGoldens pins the rendered tables of every experiment
// that reports availability or recovery: chaos, cascade and recovery at
// Scale 0.05 and the reduced DR grid. They all read the world's health
// signal, so a change to its definitions shows up here as a table diff. It
// also pins the §III memory, Fig. 3 and Fig. 3 sweep tables, Fig. 9 and the
// heterogeneous cluster at Scale 0.05, and the cluster-size sweep at Scale
// 0.02.
//
// Four more goldens are checked on the render of a test that already runs
// the same grid, so no grid runs twice:
//
//   - manager (Seed 1, Scale 0.02): TestManagerParallelInvariance's
//     -parallel 1 render;
//   - Fig. 6b (RunFig6(HighBurst, shapeOpts())): TestFig6FailureOrdering;
//   - ablation (shapeOpts()): TestAblationShape;
//   - targetutil (shapeOpts()): TestTargetUtilSweepShape.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run 'TestExperimentTableGoldens|TestManagerParallelInvariance|TestFig6FailureOrdering|TestAblationShape|TestTargetUtilSweepShape'
func TestExperimentTableGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment grids")
	}
	for _, g := range tableGoldens() {
		t.Run(g.name, g.check)
	}
}

// TestOrdinalResolutionMatchesFindReplica reruns the goldens of every
// experiment that fails, recovers, evacuates or cascades (chaos, cascade,
// the reduced DR grid and recovery) with the monitor's ordinal self-check
// on: every snapshot replica and every action the monitor resolves by
// ordinal is re-resolved by name, through a scan of its arbiter's cluster
// view (cluster.FindContainer), and any difference panics. The tables must
// still match their goldens.
func TestOrdinalResolutionMatchesFindReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment grids")
	}
	defer monitor.VerifyOrdinals(monitor.VerifyOrdinals(true))
	for _, g := range tableGoldens() {
		switch g.name {
		case "chaos", "cascade", "dr_smoke", "recovery":
			t.Run(g.name, g.check)
		}
	}
}

// goldenTable is one table TestExperimentTableGoldens pins: its golden's
// name and the run that builds its grid.
type goldenTable struct {
	name string
	run  func(t *testing.T) (*Grid, error)
}

// check renders the grid and compares its table with its golden.
func (g goldenTable) check(t *testing.T) {
	grid, err := g.run(t)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_"+g.name+"_table.txt", grid.Table())
}

// tableGoldens lists TestExperimentTableGoldens' tables.
func tableGoldens() []goldenTable {
	opts := Options{Seed: 1, Scale: 0.05}
	at := func(run func(Options) (*Grid, error), opts Options) func(*testing.T) (*Grid, error) {
		return func(*testing.T) (*Grid, error) { return run(opts) }
	}
	return []goldenTable{
		{"chaos", at(RunChaos, opts)},
		{"cascade", at(RunCascade, opts)},
		{"dr_smoke", func(t *testing.T) (*Grid, error) { return drSmoke(t, 0), nil }},
		{"recovery", at(RunRecovery, opts)},
		{"mem", at(RunMemScaling, opts)},
		{"fig3", at(RunFig3, opts)},
		{"fig3sweep", at(RunFig3Sweep, opts)},
		{"fig9", func(*testing.T) (*Grid, error) { return RunFig9(nil, opts) }},
		{"hetero", at(RunHeterogeneous, opts)},
		{"scale", at(RunScale, Options{Seed: 1, Scale: 0.02})},
	}
}

// TestSeriesColumnsNamePublishedSeries: every series a column of a goldened
// grid reads is published by at least one of the grid's rows. A column
// whose family or labels were misspelled would print 0 on every row
// without an error; here it fails. It covers the grids whose columns read
// the metric list: chaos, recovery, cascade, the reduced DR grid and the
// cluster-size sweep at their golden options, and the manager and Fig. 6b
// grids at the options of the tests that pin them.
func TestSeriesColumnsNamePublishedSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment grids")
	}
	grids := []goldenTable{
		{"manager", func(*testing.T) (*Grid, error) { return RunManager(Options{Seed: 1, Scale: 0.02}) }},
		{"fig6b", func(*testing.T) (*Grid, error) { return RunFig6(HighBurst, shapeOpts()) }},
	}
	for _, g := range tableGoldens() {
		switch g.name {
		case "chaos", "recovery", "cascade", "dr_smoke", "scale":
			grids = append(grids, g)
		}
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			grid, err := g.run(t)
			if err != nil {
				t.Fatal(err)
			}
			reads := 0
			for _, c := range grid.columns {
				for _, k := range c.reads {
					reads++
					published := slices.ContainsFunc(grid.Rows, func(r Row) bool {
						_, ok := obs.Lookup(r.Metrics, k.name, k.labels)
						return ok
					})
					if !published {
						t.Errorf("column %q reads %s{%s}, which no row publishes", c.header, k.name, k.labels)
					}
				}
			}
			if reads == 0 {
				t.Error("no column reads the metric list")
			}
		})
	}
}
