package core_test

import (
	"reflect"
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/resources"
	"hyscale/internal/scalermgr"
)

// TestRoundCreditAsymmetry pins the ledger rule that tells the algorithms
// apart within one round: service a is above its maximum and gives up a
// replica on the only node, which has nothing left; service b, planned
// after it, needs its first replica. HyScale credits the removed replica's
// allocation back, so b lands on the freed capacity. Kubernetes and the
// manager do not, so b stays unplaced until the next round sees the freed
// node.
func TestRoundCreditAsymmetry(t *testing.T) {
	alloc := resources.Vector{CPU: 1, MemMB: 512}
	snap := core.Snapshot{
		Now: 10 * time.Second,
		Services: []core.ServiceStats{
			{
				Info: core.ServiceInfo{Name: "a", MinReplicas: 1, MaxReplicas: 1, TargetUtil: 0.5,
					BaselineMemMB: 100, InitialAlloc: alloc},
				Replicas: []core.ReplicaStats{
					{ContainerID: "a-0", NodeID: "n1", Requested: alloc, Usage: alloc.Scale(0.5), Routable: true},
					{ContainerID: "a-1", NodeID: "n1", Requested: alloc, Usage: alloc.Scale(0.5), Routable: true},
				},
			},
			{Info: core.ServiceInfo{Name: "b", MinReplicas: 1, MaxReplicas: 2, TargetUtil: 0.5,
				BaselineMemMB: 100, InitialAlloc: alloc}},
		},
		Nodes: []core.NodeStats{{
			ID:        "n1",
			Capacity:  resources.Vector{CPU: 2, MemMB: 4096, NetMbps: 1000},
			Available: resources.Vector{CPU: 0, MemMB: 3072, NetMbps: 1000},
			Hosts:     []string{"a"},
		}},
	}
	scaleIn := core.ScaleIn{ContainerID: "a-1"}
	cfg := core.DefaultConfig()
	mgr, err := scalermgr.New(cfg, scalermgr.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo core.Algorithm
		want []core.Action
	}{
		{core.NewKubernetes(cfg), []core.Action{scaleIn}},
		{mgr, []core.Action{scaleIn}},
		{core.NewHyScaleCPU(cfg), []core.Action{scaleIn, core.ScaleOut{Service: "b", NodeID: "n1", Alloc: alloc}}},
	}
	for _, c := range cases {
		if got := c.algo.Decide(snap).Actions; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: plan %+v, want %+v", c.algo.Name(), got, c.want)
		}
	}
}
