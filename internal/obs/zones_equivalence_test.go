package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hyscale/internal/platform"
	"hyscale/internal/runner"
)

// TestReportGoldenZonesOne is the sharded-control-plane equivalence
// regression: the observed batch with an explicit zones=1 platform must
// produce byte-identical JSONL/CSV artifacts to the committed pre-refactor
// golden, at every worker count. zones=1 runs on the same monitor.Plane as a
// zoned world, as its single arbiter, so byte equality proves the one-zone
// plane decides exactly as the single central Monitor did.
func TestReportGoldenZonesOne(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_report_artifacts.txt"))
	if err != nil {
		t.Fatalf("missing golden file (generate via TestReportGolden with UPDATE_GOLDEN=1): %v", err)
	}
	for _, workers := range []int{1, 4, 8} {
		specs := observedSpecs()
		for i := range specs {
			cfg := platform.DefaultConfig(0)
			cfg.Zones = 1
			cfg.Observe = true
			specs[i].Platform = cfg
		}
		results, _, err := runner.Execute(workers, 1, specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := artifactBytes(t, results); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: zones=1 artifacts diverged from pre-refactor golden (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}
