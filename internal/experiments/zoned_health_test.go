package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"hyscale/internal/faults"
	"hyscale/internal/monitor"
	"hyscale/internal/obs"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// zonedSpec is a small hybrid run of four CPU-bound services on the default
// platform split into zones.
func zonedSpec(name string, zones int) runner.RunSpec {
	spec := runner.RunSpec{
		Name:      name,
		Seed:      1,
		Algorithm: "hybrid",
		Duration:  2 * time.Minute,
		Services:  makeServices(workload.KindCPUBound, 4, LowBurst, 1),
	}
	spec.Platform = platform.DefaultConfig(1)
	spec.Platform.Zones = zones
	return spec
}

// TestHealthOnZonedWorlds reads the world's health signal from
// Result.Metrics, unzoned and with two zones, in three cases: a node death
// under the chaos fault mix (chaos-uptime, so availability sees black-holed
// backends), a bare node death (recovery-probe), and a zone outage on two
// zones (zone-outage, so the reconvergence path runs on a zoned plane).
// The signal must report sane figures at any zone count.
func TestHealthOnZonedWorlds(t *testing.T) {
	type healthCase struct {
		scenario string
		zones    int
	}
	var cases []healthCase
	for _, zones := range []int{1, 2} {
		cases = append(cases, healthCase{"chaos-uptime", zones}, healthCase{"recovery-probe", zones})
	}
	cases = append(cases, healthCase{"zone-outage", 2})
	for _, tc := range cases {
		name := fmt.Sprintf("%s/zones=%d", tc.scenario, tc.zones)
		t.Run(name, func(t *testing.T) {
			spec := zonedSpec("zoned-health/"+name, tc.zones)
			switch tc.scenario {
			case "zone-outage":
				spec.Platform.SelfHealing = monitor.DefaultSelfHealing()
				spec.Platform.Faults = faults.Config{Seed: 1, Windows: []faults.Window{{
					Kind: faults.KindZoneOutage, Target: "0", From: 30 * time.Second, To: 75 * time.Second,
				}}}
			case "chaos-uptime":
				spec.Platform.Faults = ChaosFaults(1001)
				fallthrough
			default:
				spec.NodeFailures = []runner.NodeFailure{{At: 30 * time.Second, Node: "node-0"}}
			}
			res, err := runner.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Completed == 0 {
				t.Fatal("no request completed")
			}
			row := &Row{Result: res}
			if av := row.availability(); av <= 0 || av > 100 {
				t.Errorf("availability = %v, want (0, 100]", av)
			}
			if sampled := row.series(platform.SeriesAvailabilitySampled, ""); sampled != 4*120 {
				t.Errorf("%v service-seconds sampled, want 4 services x 120 s", sampled)
			}
			rc, ok := obs.Lookup(res.Metrics, platform.SeriesReconverge, "")
			if !ok {
				t.Errorf("%s not reported", platform.SeriesReconverge)
			}
			if tc.scenario == "zone-outage" && rc == 0 {
				t.Errorf("zone outage never degraded provisioned capacity (%s = 0)", platform.SeriesReconverge)
			}
			if _, ok := obs.Lookup(res.Metrics, platform.SeriesGoodputRecovery, ""); ok {
				t.Errorf("%s reported on a world without a call graph", platform.SeriesGoodputRecovery)
			}
		})
	}
}

// TestHeteroClusterBeforeDeploy builds the heterogeneous cluster unzoned and
// with two zones: at t=0 all nineteen machines, nine of them big, are in
// the cluster, every one is attached to exactly one arbiter, and every
// service has its initial replica on a live machine.
func TestHeteroClusterBeforeDeploy(t *testing.T) {
	for _, zones := range []int{1, 2} {
		t.Run(fmt.Sprintf("zones=%d", zones), func(t *testing.T) {
			spec := heterogeneous(zonedSpec("hetero", zones))
			w, _, err := runner.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			var physical, attached []string
			big := 0
			for _, n := range w.Cluster().Nodes() {
				physical = append(physical, n.ID())
				if strings.HasPrefix(n.ID(), "big-") {
					big++
				}
			}
			for _, nc := range w.Control().NodeConditions() {
				attached = append(attached, nc.Node)
			}
			slices.Sort(physical)
			slices.Sort(attached)
			if len(physical) != 19 || big != 9 {
				t.Errorf("%d machines, %d big; want 19 and 9", len(physical), big)
			}
			if !slices.Equal(physical, attached) {
				t.Errorf("arbiters track %v, physical cluster has %v", attached, physical)
			}
			for _, s := range spec.Services {
				replicas := w.Control().Replicas(s.Spec.Name)
				if len(replicas) == 0 {
					t.Errorf("%s has no initial replica", s.Spec.Name)
				}
				for _, c := range replicas {
					if w.Cluster().Node(c.NodeID) == nil {
						t.Errorf("replica %s placed on %s, which is not in the cluster", c.ID, c.NodeID)
					}
				}
			}
		})
	}
}
