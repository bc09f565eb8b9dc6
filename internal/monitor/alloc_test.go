package monitor

// Allocation regression tests for the monitor's hot path. The poll loop runs
// once per MonitorPeriod for every node in the cluster; at 1000 nodes a
// single stray per-node allocation turns into tens of thousands of garbage
// objects per simulated minute. Snapshot assembly is built around reused
// scratch (statsByID, seenGen, snapNodes/snapServices, cached per-node
// reports), so in steady state — warm replicas, no churn, no faults — a full
// Sample+Poll cycle must allocate nothing. AllocsPerRun pins that at 0.

import (
	"fmt"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/core"
	"hyscale/internal/resources"
)

// staticAlgo never scales and records nothing, so the measurement sees only
// the monitor's own allocations.
type staticAlgo struct{}

func (staticAlgo) Name() string                   { return "static" }
func (staticAlgo) Decide(core.Snapshot) core.Plan { return core.Plan{} }

func TestPollSteadyStateAllocFree(t *testing.T) {
	cl, err := cluster.NewHomogeneous(6, cluster.DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	m := newMonitor(cl, staticAlgo{})
	for _, name := range []string{"a", "b", "c"} {
		if err := m.AddService(spec(name), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := m.DeployInitial(name, 0); err != nil {
			t.Fatal(err)
		}
	}

	now := time.Duration(0)
	cycle := func() {
		now += time.Second
		m.Sample()
		m.Poll(now)
	}
	// Warm-up polls size every scratch buffer and populate the per-node
	// report caches; steady state starts after the first full cycle, but a
	// few extra rounds keep the test honest about cache stability.
	for i := 0; i < 3; i++ {
		cycle()
	}

	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state Sample+Poll allocates %.1f objects/cycle, want 0", allocs)
	}
}

// verticalAlgo resizes every replica every poll, alternating between two
// allocations. Both plans are boxed once up front, so Decide itself allocates
// nothing and the measurement sees only the monitor's apply path.
type verticalAlgo struct {
	plans [2]core.Plan
	polls int
}

func newVerticalAlgo(ids []string) *verticalAlgo {
	a := &verticalAlgo{}
	for i, cpu := range []float64{1.5, 1} {
		for _, id := range ids {
			a.plans[i].Actions = append(a.plans[i].Actions, core.VerticalScale{
				ContainerID: id, NewAlloc: resources.Vector{CPU: cpu, MemMB: 512},
			})
		}
	}
	return a
}

func (a *verticalAlgo) Name() string { return "vertical" }
func (a *verticalAlgo) Decide(core.Snapshot) core.Plan {
	a.polls++
	return a.plans[a.polls%2]
}

// TestApplyVerticalAllocFree pins the apply path: resolving each vertical
// action to its container and node goes through the replica index, so a
// Sample→Snapshot→Decide→Apply cycle that resizes every replica allocates
// nothing at any cluster size.
func TestApplyVerticalAllocFree(t *testing.T) {
	for _, nodes := range []int{6, 600} {
		cl, err := cluster.NewHomogeneous(nodes, cluster.DefaultNodeConfig(""))
		if err != nil {
			t.Fatal(err)
		}
		m := newMonitor(cl, nil)
		var ids []string
		for i := 0; i < nodes/2; i++ {
			name := fmt.Sprintf("s%d", i)
			if err := m.AddService(spec(name), 0.5); err != nil {
				t.Fatal(err)
			}
			if err := m.DeployInitial(name, 0); err != nil {
				t.Fatal(err)
			}
			for _, c := range m.Replicas(name) {
				ids = append(ids, c.ID)
			}
		}
		m.algo = newVerticalAlgo(ids)

		now := time.Duration(0)
		cycle := func() {
			now += time.Second
			m.Sample()
			m.Poll(now)
		}
		for i := 0; i < 3; i++ {
			cycle()
		}
		before := m.Counts().Vertical
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("%d nodes: vertical Sample+Poll allocates %.1f objects/cycle, want 0", nodes, allocs)
		}
		if got, want := m.Counts().Vertical-before, uint64(21*len(ids)); got != want {
			t.Errorf("%d nodes: applied %d vertical actions, want %d", nodes, got, want)
		}
	}
}

// BenchmarkApplyVertical times one vertical action through Apply on a
// cluster of one replica per node. The action resolves its target through
// the replica index, so ns/op stays flat as the cluster grows.
func BenchmarkApplyVertical(b *testing.B) {
	for _, nodes := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cl, err := cluster.NewHomogeneous(nodes, cluster.DefaultNodeConfig(""))
			if err != nil {
				b.Fatal(err)
			}
			m := newMonitor(cl, staticAlgo{})
			var ids []string
			for i, n := range cl.Nodes() {
				name := fmt.Sprintf("s%d", i)
				if err := m.AddService(spec(name), 0.5); err != nil {
					b.Fatal(err)
				}
				if err := m.StartReplica(name, n.ID(), resources.Vector{CPU: 1, MemMB: 512}, 0); err != nil {
					b.Fatal(err)
				}
				ids = append(ids, m.Replicas(name)[0].ID)
			}
			// One single-action plan per replica and allocation, boxed up front.
			var plans [2][]core.Plan
			for k, cpu := range []float64{1.5, 1} {
				for _, id := range ids {
					plans[k] = append(plans[k], core.Plan{Actions: []core.Action{core.VerticalScale{
						ContainerID: id, NewAlloc: resources.Vector{CPU: cpu, MemMB: 512},
					}}})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Apply(plans[(i/nodes)%2][i%nodes], time.Second)
			}
		})
	}
}
