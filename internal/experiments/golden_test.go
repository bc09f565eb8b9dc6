package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"hyscale/internal/monitor"
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
// ordinal is re-resolved by name, through findReplica, and any difference
// panics. The tables must still match their goldens.
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
// name and the run that renders it.
type goldenTable struct {
	name string
	run  func(t *testing.T) (*Table, error)
}

// check renders the table and compares it with its golden.
func (g goldenTable) check(t *testing.T) {
	tab, err := g.run(t)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_"+g.name+"_table.txt", tab)
}

// tableGoldens lists TestExperimentTableGoldens' tables.
func tableGoldens() []goldenTable {
	opts := Options{Seed: 1, Scale: 0.05}
	return []goldenTable{
		{"chaos", func(*testing.T) (*Table, error) {
			r, err := RunChaos(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"cascade", func(*testing.T) (*Table, error) {
			r, err := RunCascade(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"dr_smoke", func(t *testing.T) (*Table, error) {
			return drSmoke(t, 0).Table(), nil
		}},
		{"recovery", func(*testing.T) (*Table, error) {
			r, err := RunRecovery(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"mem", func(*testing.T) (*Table, error) {
			r, err := RunMemScaling(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"fig3", func(*testing.T) (*Table, error) {
			r, err := RunFig3(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"fig3sweep", func(*testing.T) (*Table, error) {
			r, err := RunFig3Sweep(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"fig9", func(*testing.T) (*Table, error) {
			r, err := RunFig9(nil, opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"hetero", func(*testing.T) (*Table, error) {
			r, err := RunHeterogeneous(opts)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
		{"scale", func(*testing.T) (*Table, error) {
			r, err := RunScale(Options{Seed: 1, Scale: 0.02})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	}
}
