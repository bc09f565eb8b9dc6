package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"hyscale/internal/runner"
)

// TestFig2TableGoldenZonesOne is the sharded-control-plane equivalence
// regression: an explicit zones=1 configuration must reproduce the committed
// pre-refactor Fig-2 golden byte-for-byte, at several executor worker
// counts. zones=1 runs on the same monitor.Plane as a zoned world, as its
// single arbiter, so byte equality proves the zone plumbing is inert when
// the plane is not sharded.
func TestFig2TableGoldenZonesOne(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_fig2_table.txt"))
	if err != nil {
		t.Fatalf("missing golden file (generate via TestFig2TableGolden with UPDATE_GOLDEN=1): %v", err)
	}
	for _, workers := range []int{1, 4, 8} {
		opts := shapeOpts().scaled()
		opts.Parallel = workers
		g, cells, compile := fig2Grid(opts)
		_, err := requireCompleted(g.run(cells, func(l []string) runner.RunSpec {
			spec := compile(l)
			spec.Platform.Zones = 1
			return spec
		}, opts))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		tab := g.Table()
		got := tab.String() + tab.CSV()
		if string(want) != got {
			t.Fatalf("workers=%d: zones=1 fig2 table diverged from pre-refactor golden:\n--- want ---\n%s\n--- got ---\n%s",
				workers, want, got)
		}
	}
}
