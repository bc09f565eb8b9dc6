package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"hyscale/internal/faults"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// TestZonedHooks runs every registered hook that reads replicas or swaps
// machines through the control plane on a small world, unzoned and with two
// zones. The health probe runs in three scenarios: a node death under the
// chaos fault mix (chaos-uptime, so availability sees black-holed
// backends), a bare node death (recovery-probe), and a zone outage on two
// zones (health/zones=2/zone-outage, so the reconvergence path runs on a
// zoned plane). The hooks must work at any zone count: the probe reports
// sane figures, and after the heterogeneous node swap every machine of the
// physical cluster is attached to exactly one arbiter and no replica sits on
// a machine that left it.
func TestZonedHooks(t *testing.T) {
	services := makeServices(workload.KindCPUBound, 4, LowBurst, 1)
	type hookCase struct {
		scenario string
		hook     string
		zones    int
		chaos    bool // add the chaos fault mix to the node death
		outage   bool // a zone outage instead of a node death
	}
	var cases []hookCase
	for _, zones := range []int{1, 2} {
		cases = append(cases,
			hookCase{scenario: "chaos-uptime", hook: HookHealth, zones: zones, chaos: true},
			hookCase{scenario: "recovery-probe", hook: HookHealth, zones: zones},
			hookCase{scenario: HookHeteroBigNodes, hook: HookHeteroBigNodes, zones: zones})
	}
	cases = append(cases, hookCase{scenario: HookHealth, hook: HookHealth, zones: 2, outage: true})
	for _, tc := range cases {
		hook, zones := tc.hook, tc.zones
		name := fmt.Sprintf("%s/zones=%d", tc.scenario, zones)
		if tc.outage {
			name += "/zone-outage"
		}
		t.Run(name, func(t *testing.T) {
			spec := runner.RunSpec{
				Name:      "zoned-hooks/" + name,
				Seed:      1,
				Algorithm: "hybrid",
				Duration:  2 * time.Minute,
				Services:  services,
				Hooks:     []string{hook},
			}
			spec.Platform = platform.DefaultConfig(1)
			spec.Platform.Zones = zones
			if tc.outage {
				spec.Platform.SelfHealing = monitor.DefaultSelfHealing()
				spec.Platform.Faults = faults.Config{Seed: 1, Windows: []faults.Window{{
					Kind: faults.KindZoneOutage, Target: "0", From: 30 * time.Second, To: 75 * time.Second,
				}}}
			} else {
				spec.NodeFailures = []runner.NodeFailure{{At: 30 * time.Second, Node: "node-0"}}
				if tc.chaos {
					spec.Platform.Faults = ChaosFaults(1001)
				}
			}
			res, err := runner.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Completed == 0 {
				t.Fatal("no request completed")
			}
			switch hook {
			case HookHealth:
				if av := res.Extra[extraAvailability]; av <= 0 || av > 100 {
					t.Errorf("%s = %v, want (0, 100]", extraAvailability, av)
				}
				rc, ok := res.Extra[extraReconverge]
				if !ok {
					t.Errorf("%s not reported", extraReconverge)
				}
				if tc.outage && rc == 0 {
					t.Errorf("zone outage never degraded provisioned capacity (%s = 0)", extraReconverge)
				}
				if _, ok := res.Extra[extraGoodputRecovery]; ok {
					t.Errorf("%s reported on a world without a call graph", extraGoodputRecovery)
				}
			case HookHeteroBigNodes:
				var physical, attached []string
				big := 0
				for _, n := range res.World.Cluster().Nodes() {
					physical = append(physical, n.ID())
					if strings.HasPrefix(n.ID(), "big-") {
						big++
					}
				}
				for _, nc := range res.World.Control().NodeConditions() {
					attached = append(attached, nc.Node)
				}
				sort.Strings(physical)
				sort.Strings(attached)
				if big != 9 {
					t.Errorf("%d big nodes in the cluster, want 9", big)
				}
				if strings.Join(physical, ",") != strings.Join(attached, ",") {
					t.Errorf("arbiters track %v, physical cluster has %v", attached, physical)
				}
				for _, s := range spec.Services {
					for _, c := range res.World.Control().Replicas(s.Spec.Name) {
						if res.World.Cluster().Node(c.NodeID) == nil {
							t.Errorf("replica %s placed on %s, which left the cluster", c.ID, c.NodeID)
						}
					}
				}
			}
		})
	}
}
