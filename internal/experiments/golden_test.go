package experiments

import (
	"os"
	"path/filepath"
	"testing"
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
// Scale 0.05 and the reduced DR grid. They all read the shared health
// probe, so a change to its definitions shows up here as a table diff.
//
// Four more goldens are checked on the render of a test that already runs
// the same grid, so no grid runs twice:
//
//   - manager (Seed 1, Scale 0.02): TestManagerParallelInvariance's
//     -parallel 1 render;
//   - Fig. 6b (RunFig6(HighBurst, shapeOpts())): TestFig6FailureOrdering;
//   - ablation via CostTableFor (shapeOpts()): TestAblationShape;
//   - targetutil (shapeOpts()): TestTargetUtilSweepShape.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/experiments -run 'TestExperimentTableGoldens|TestManagerParallelInvariance|TestFig6FailureOrdering|TestAblationShape|TestTargetUtilSweepShape'
func TestExperimentTableGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment grids")
	}
	opts := Options{Seed: 1, Scale: 0.05}
	for _, c := range []struct {
		name string
		run  func(t *testing.T) (*Table, error)
	}{
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
	} {
		t.Run(c.name, func(t *testing.T) {
			tab, err := c.run(t)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "golden_"+c.name+"_table.txt", tab)
		})
	}
}
