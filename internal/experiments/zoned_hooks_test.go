package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/workload"
)

// TestZonedHooks runs every registered hook that reads replicas or swaps
// machines through the control plane on a small world, unzoned and with two
// zones. The hooks must work at any zone count: the probes report sane
// figures, and after the heterogeneous node swap every machine of the
// physical cluster is attached to exactly one arbiter and no replica sits on
// a machine that left it.
func TestZonedHooks(t *testing.T) {
	services := makeServices(workload.KindCPUBound, 4, LowBurst, 1)
	for _, hook := range []string{HookChaosUptime, HookRecoveryProbe, HookHeteroBigNodes} {
		for _, zones := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/zones=%d", hook, zones), func(t *testing.T) {
				spec := runner.RunSpec{
					Name:         fmt.Sprintf("zoned-hooks/%s-%dz", hook, zones),
					Seed:         1,
					Algorithm:    "hybrid",
					Duration:     2 * time.Minute,
					NodeFailures: []runner.NodeFailure{{At: 30 * time.Second, Node: "node-0"}},
					Hooks:        []string{hook},
				}
				spec.Platform = platform.DefaultConfig(1)
				spec.Platform.Zones = zones
				for _, s := range services {
					spec.Services = append(spec.Services, runner.ServiceRun{
						Spec: s.spec, Target: s.target, Load: runner.FromPattern(s.pattern),
					})
				}
				res, err := runner.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.Summary.Completed == 0 {
					t.Fatal("no request completed")
				}
				switch hook {
				case HookChaosUptime:
					if up := res.Extra["uptimePercent"]; up <= 0 || up > 100 {
						t.Errorf("uptimePercent = %v, want (0, 100]", up)
					}
				case HookRecoveryProbe:
					if av := res.Extra["availabilityPercent"]; av <= 0 || av > 100 {
						t.Errorf("availabilityPercent = %v, want (0, 100]", av)
					}
					if _, ok := res.Extra["reconvergeSeconds"]; !ok {
						t.Error("reconvergeSeconds not reported")
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
}
