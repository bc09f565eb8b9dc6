package experiments

import (
	"strings"
	"testing"
)

// drSmoke runs the DR grid on a proportionally shrunk cluster: 120 nodes in
// 4 zones (120 CPU per zone), 58 fillers (~15 per zone, 60 CPU used) and a
// 55-replica mammoth that fits a fresh zone's ~60 free CPU. The horizon at
// scale 0.02 reaches the evacuation but not the heal — the full round trip
// is covered by the platform-level conservation tests and the CI bench run.
func drSmoke(t *testing.T, parallel int) *Grid {
	t.Helper()
	res, err := runDRSized(Options{Seed: 1, Scale: 0.02, Parallel: parallel},
		120, 4, 58, 55, []string{"hybridmem"})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDRGridShape checks the reduced grid covers every scenario × variant
// cell and that evacuation-enabled cells actually displace replicas while
// no-evac cells never do.
func TestDRGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	res := drSmoke(t, 0)
	displaced := func(r *Row) float64 { return r.series("hyscale_zone_evac_replicas_displaced_total", "") }
	if len(res.Rows) != 9 {
		t.Fatalf("outcomes = %d, want 3 scenarios x 3 variants", len(res.Rows))
	}
	for _, scenario := range []string{"outage", "partition", "rolling"} {
		for _, variant := range []string{"no-evac", "evac", "spill"} {
			o := res.Row(scenario, variant, "hybridmem")
			if o == nil {
				t.Fatalf("missing outcome %s/%s", scenario, variant)
			}
			if variant == "no-evac" {
				if displaced(o) != 0 || o.series("hyscale_zone_evac_spillover_placements_total", "") != 0 {
					t.Errorf("%s/no-evac displaced %.0f replicas", scenario, displaced(o))
				}
				continue
			}
			if displaced(o) == 0 {
				t.Errorf("%s/%s: zone death displaced no replicas", scenario, variant)
			}
		}
	}
	// The no-evac cell pays for the outage in availability; evacuation must
	// not make it worse.
	base := res.Row("outage", "no-evac", "hybridmem")
	evac := res.Row("outage", "evac", "hybridmem")
	if evac.availability() < base.availability() {
		t.Errorf("outage availability: evac %.2f%% < no-evac %.2f%%",
			evac.availability(), base.availability())
	}
}

// TestDRParallelInvariance: the rendered table must be byte-identical for
// any worker count.
func TestDRParallelInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	base := drSmoke(t, 1).Table().String()
	for _, p := range []int{2, 4} {
		if got := drSmoke(t, p).Table().String(); got != base {
			t.Errorf("-parallel %d diverged:\n%s\nvs\n%s", p, got, base)
		}
	}
	for _, want := range []string{"rolling", "spill", "reconverge", "displaced"} {
		if !strings.Contains(base, want) {
			t.Errorf("table missing %q:\n%s", want, base)
		}
	}
}
