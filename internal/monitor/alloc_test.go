package monitor

// Allocation regression tests for the monitor's hot path. The poll loop runs
// once per MonitorPeriod for every node in the cluster; at 1000 nodes a
// single stray per-node allocation turns into tens of thousands of garbage
// objects per simulated minute. Snapshot assembly is built around reused
// scratch (the ordinal tables, seenGen, snapNodes/snapServices, cached
// per-node reports), planning around the algorithm's reused Round, and
// applying around plain action values, so in steady state — warm replicas,
// no churn, no faults — a full Sample+Poll cycle must allocate nothing.
// AllocsPerRun pins that at 0.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/obs"
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
	m := soloMonitor(cl, staticAlgo{})
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
// allocations. Both plans are boxed once up front and Decide fills their
// ordinals in place, so Decide itself allocates nothing and the measurement
// sees only the monitor's apply path.
type verticalAlgo struct {
	plans [2]core.Plan
	polls int
}

func newVerticalAlgo(ids []string) *verticalAlgo {
	a := &verticalAlgo{}
	for i, cpu := range []float64{1.5, 1} {
		for _, id := range ids {
			a.plans[i].Actions = append(a.plans[i].Actions, core.Resize(id, resources.Vector{CPU: cpu, MemMB: 512}))
		}
	}
	return a
}

func (a *verticalAlgo) Name() string { return "vertical" }
func (a *verticalAlgo) Decide(snap core.Snapshot) core.Plan {
	a.polls++
	return fillOrdinals(snap, a.plans[a.polls%2])
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
		m := soloMonitor(cl, nil)
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
// its replica ordinal, so ns/op stays flat as the cluster grows.
func BenchmarkApplyVertical(b *testing.B) {
	for _, nodes := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cl, err := cluster.NewHomogeneous(nodes, cluster.DefaultNodeConfig(""))
			if err != nil {
				b.Fatal(err)
			}
			m := soloMonitor(cl, staticAlgo{})
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
			// One single-action plan per replica and allocation, boxed up
			// front and decided from one snapshot.
			snap := m.Snapshot(time.Second)
			var plans [2][]core.Plan
			for k, cpu := range []float64{1.5, 1} {
				for _, id := range ids {
					plan := core.Plan{Actions: []core.Action{core.Resize(id, resources.Vector{CPU: cpu, MemMB: 512})}}
					plans[k] = append(plans[k], fillOrdinals(snap, plan))
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

// resizingWorld deploys three services of two replicas each on six nodes,
// each service pinned at two replicas (MinReplicas == MaxReplicas) so a
// planner can only resize, under algo. Its cycle sets every replica's
// measured usage, alternating between a load that outgrows the replica and
// one that leaves it idle, then runs one Sample+Poll.
func resizingWorld(t *testing.T, algo core.Algorithm) (*Monitor, func()) {
	t.Helper()
	cl, err := cluster.NewHomogeneous(6, cluster.DefaultNodeConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	m := soloMonitor(cl, algo)
	for _, name := range []string{"a", "b", "c"} {
		s := spec(name)
		s.MaxReplicas = s.MinReplicas
		if err := m.AddService(s, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := m.DeployInitial(name, 0); err != nil {
			t.Fatal(err)
		}
	}
	var reps []*container.Container
	for _, name := range []string{"a", "b", "c"} {
		reps = append(reps, m.Replicas(name)...)
	}
	now, polls := time.Duration(0), 0
	return m, func() {
		now += time.Second
		polls++
		u := container.Usage{CPU: 0.9, MemMB: 256}
		if polls%2 == 0 {
			u.CPU = 0.2
		}
		for _, c := range reps {
			c.SetLastUsage(u)
		}
		m.Sample()
		m.Poll(now)
	}
}

// TestPollResizeAllocFree pins the ordinal poll path end to end: hybridmem
// plans from the monitor's own snapshot and resizes every replica every
// poll, so each poll snapshots, decides and applies six vertical actions,
// all resolved by ordinal. With the journal off that allocates nothing; with
// it on, the journal's record storage grows by one chunk per 1,024
// decisions and nothing else allocates. kubernetes, which has nothing to
// change here, allocates nothing either.
func TestPollResizeAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, journal := range []bool{false, true} {
		m, cycle := resizingWorld(t, core.NewHyScaleCPUMem(core.DefaultConfig()))
		if journal {
			m.journal = obs.NewJournal()
		}
		for i := 0; i < 4; i++ {
			cycle()
		}
		const cycles = 400
		before := m.Counts()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&ms1)
		after := m.Counts()
		if got, want := after.Vertical-before.Vertical, uint64(6*cycles); got != want {
			t.Fatalf("journal %v: applied %d vertical actions, want %d", journal, got, want)
		}
		if after.ScaleOuts != before.ScaleOuts || after.ScaleIns != before.ScaleIns {
			t.Fatalf("journal %v: the planner scaled horizontally", journal)
		}
		// Each new chunk is one allocation, and may grow the chunk list once.
		bound := uint64(0)
		if journal {
			bound = 2 * uint64((6*cycles+1023)/1024)
		}
		if allocs := ms1.Mallocs - ms0.Mallocs; allocs > bound {
			t.Errorf("journal %v: %d cycles allocated %d objects, want at most %d", journal, cycles, allocs, bound)
		}
	}

	_, cycle := resizingWorld(t, core.NewKubernetes(core.DefaultConfig()))
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("kubernetes: steady-state Sample+Poll allocates %.1f objects/cycle, want 0", allocs)
	}
}
