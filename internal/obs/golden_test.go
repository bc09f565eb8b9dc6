package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hyscale/internal/runner"
)

// TestReportGolden pins the -report artifact bytes against a committed
// golden file, at several executor worker counts. The golden was generated
// BEFORE the hot-path overhaul (scratch-buffer monitor snapshots, coalesced
// engine events, incremental metrics merge), so this test proves the
// optimized paths produce byte-identical observable output to the original
// implementation — not merely self-consistent output.
//
// Regenerate deliberately with:
//
//	UPDATE_GOLDEN=1 go test ./internal/obs -run TestReportGolden
func TestReportGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "golden_report_artifacts.txt")
	var firstRun []byte
	for _, workers := range []int{1, 4, 8} {
		results, err := runner.Execute(workers, 1, observedSpecs())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b := artifactBytes(t, results)
		if firstRun == nil {
			firstRun = b
		} else if !bytes.Equal(firstRun, b) {
			t.Fatalf("workers=%d: artifacts differ across worker counts", workers)
		}
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, firstRun, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(firstRun))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(want, firstRun) {
		t.Fatalf("report artifacts diverged from pre-change golden (%d vs %d bytes); if the change is intentional, regenerate with UPDATE_GOLDEN=1",
			len(firstRun), len(want))
	}
}
