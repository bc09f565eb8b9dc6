package nodemanager

import (
	"math"
	"testing"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

func spec() workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: "svc", Kind: workload.KindCPUBound,
		CPUPerRequest: 1.0, MemPerRequest: 10, BaselineMemMB: 50,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 256,
		MinReplicas: 1, MaxReplicas: 4, Timeout: 30 * time.Second,
	}
}

func setup(t *testing.T) (*cluster.Node, *Manager, *container.Container) {
	t.Helper()
	n, err := cluster.NewNode(cluster.DefaultNodeConfig("node-0"))
	if err != nil {
		t.Fatal(err)
	}
	c := container.New("c-0", spec(), "node-0", resources.Vector{CPU: 2, MemMB: 512}, 0)
	c.MaybeStart(0)
	if err := n.AddContainer(c); err != nil {
		t.Fatal(err)
	}
	return n, New(n), c
}

func TestReportAveragesSamples(t *testing.T) {
	_, nm, c := setup(t)

	c.SetLastUsage(container.Usage{CPU: 1.0, MemMB: 100, NetMbps: 10})
	nm.Sample()
	c.SetLastUsage(container.Usage{CPU: 2.0, MemMB: 200, NetMbps: 30})
	nm.Sample()

	var rep Report
	nm.Report(&rep)
	if rep.NodeID != "node-0" {
		t.Errorf("NodeID = %q", rep.NodeID)
	}
	if len(rep.Containers) != 1 {
		t.Fatalf("containers = %d, want 1", len(rep.Containers))
	}
	cs := rep.Containers[0]
	if math.Abs(cs.Usage.CPU-1.5) > 1e-9 || math.Abs(cs.Usage.MemMB-150) > 1e-9 || math.Abs(cs.Usage.NetMbps-20) > 1e-9 {
		t.Errorf("averaged usage = %v", cs.Usage)
	}
	if cs.Requested.CPU != 2 {
		t.Errorf("requested = %v", cs.Requested)
	}
	if !cs.Routable {
		t.Error("running container reported unroutable")
	}
}

func TestReportResetsWindow(t *testing.T) {
	_, nm, c := setup(t)
	c.SetLastUsage(container.Usage{CPU: 4})
	nm.Sample()
	nm.Report(&Report{})

	// New window: no samples -> zero usage.
	var rep Report
	nm.Report(&rep)
	if rep.Containers[0].Usage.CPU != 0 {
		t.Errorf("window not reset: %v", rep.Containers[0].Usage)
	}
}

func TestReportIncludesCapacityAndAvailability(t *testing.T) {
	_, nm, _ := setup(t)
	var rep Report
	nm.Report(&rep)
	if rep.Capacity.CPU != 4 {
		t.Errorf("capacity = %v", rep.Capacity)
	}
	if rep.Available.CPU != 2 { // 4 - 2 allocated
		t.Errorf("available = %v", rep.Available)
	}
}

func TestStartingContainersNotSampled(t *testing.T) {
	n, _, _ := setup(t)
	nm := New(n)
	starting := container.New("c-1", spec(), "node-0", resources.Vector{CPU: 1, MemMB: 256}, time.Hour)
	_ = n.AddContainer(starting)
	nm.Sample()
	var rep Report
	nm.Report(&rep)
	for _, cs := range rep.Containers {
		if cs.ID == "c-1" {
			if cs.Routable {
				t.Error("starting container reported routable")
			}
			if cs.Usage.CPU != 0 {
				t.Error("starting container has usage")
			}
		}
	}
}

func TestApplyVertical(t *testing.T) {
	n, nm, c := setup(t)
	if err := nm.ApplyVertical(c, resources.Vector{CPU: 3, MemMB: 1024}); err != nil {
		t.Fatal(err)
	}
	if c.Alloc.CPU != 3 || c.Alloc.MemMB != 1024 {
		t.Errorf("alloc = %v after update", c.Alloc)
	}
	stranger := container.New("nope", spec(), "node-1", resources.Vector{CPU: 1, MemMB: 512}, 0)
	if err := nm.ApplyVertical(stranger, resources.Vector{CPU: 1}); err == nil {
		t.Error("container on another node accepted")
	}
	if err := nm.ApplyVertical(c, resources.Vector{CPU: -1}); err == nil {
		t.Error("negative allocation accepted")
	}
	n.RemoveContainer(c.ID)
	if err := nm.ApplyVertical(c, resources.Vector{CPU: 1, MemMB: 512}); err == nil {
		t.Error("removed container accepted")
	}
}

// refManager is the map-keyed sampling window the slot accumulators
// replaced, kept here as the reference their Report means must match.
type refManager struct {
	node   *cluster.Node
	sums   map[string]resources.Vector
	counts map[string]int
}

func newRef(n *cluster.Node) *refManager {
	return &refManager{node: n, sums: map[string]resources.Vector{}, counts: map[string]int{}}
}

func (r *refManager) sample() {
	for _, c := range r.node.Containers() {
		if c.State != container.StateRunning {
			continue
		}
		u := c.LastUsage()
		r.sums[c.ID] = r.sums[c.ID].Add(resources.Vector{CPU: u.CPU, MemMB: u.MemMB, NetMbps: u.NetMbps})
		r.counts[c.ID]++
	}
}

func (r *refManager) report() map[string]resources.Vector {
	out := map[string]resources.Vector{}
	for _, c := range r.node.Containers() {
		var usage resources.Vector
		if n := r.counts[c.ID]; n > 0 {
			usage = r.sums[c.ID].Scale(1 / float64(n))
		}
		out[c.ID] = usage
	}
	clear(r.sums)
	clear(r.counts)
	return out
}

// TestReportMatchesMapReference drives the slot accumulators and the map
// reference over the same node through container churn mid-window and a
// missed query, and requires bit-identical per-container means.
func TestReportMatchesMapReference(t *testing.T) {
	n, nm, c0 := setup(t)
	ref := newRef(n)
	running := func(id string) *container.Container {
		c := container.New(id, spec(), "node-0", resources.Vector{CPU: 0.5, MemMB: 128}, 0)
		c.MaybeStart(0)
		if err := n.AddContainer(c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := running("c-1")
	tick := 0
	sample := func() {
		tick++
		for i, c := range n.Containers() {
			f := float64(tick*7+i*3) / 10
			c.SetLastUsage(container.Usage{CPU: f, MemMB: 100 * f, NetMbps: f / 3})
		}
		nm.Sample()
		ref.sample()
	}
	check := func(step string) []ContainerStats {
		t.Helper()
		want := ref.report()
		var rep Report
		nm.Report(&rep)
		if len(rep.Containers) != len(want) {
			t.Fatalf("%s: report has %d containers, want %d", step, len(rep.Containers), len(want))
		}
		for i, cs := range rep.Containers {
			if id := n.Containers()[i].ID; cs.ID != id {
				t.Fatalf("%s: report[%d] = %s, want %s (node order)", step, i, cs.ID, id)
			}
			if cs.Usage != want[cs.ID] {
				t.Errorf("%s: %s usage = %v, want %v", step, cs.ID, cs.Usage, want[cs.ID])
			}
		}
		return rep.Containers
	}

	sample()
	sample()
	running("c-2") // added between two samples: its window starts now
	sample()
	starting := container.New("c-3", spec(), "node-0", resources.Vector{CPU: 0.5, MemMB: 128}, time.Hour)
	if err := n.AddContainer(starting); err != nil {
		t.Fatal(err)
	}
	sample()
	n.RemoveContainer(c1.ID) // removed mid-window: drops out, others keep theirs
	sample()
	got := check("churn window")
	if last := got[len(got)-1]; last.ID != "c-3" || last.Usage != (resources.Vector{}) || last.Routable {
		t.Errorf("starting container reported %+v, want zero usage, unroutable", last)
	}

	// A missed query leaves the window intact: the next report averages
	// every sample since the last delivered one, churn included.
	sample()
	sample()
	n.RemoveContainer(c0.ID)
	running("c-4")
	sample()
	check("window across a missed query")

	sample()
	check("steady window")
}

// TestSampleReportAllocFree pins the steady-state NM cycle at zero
// allocations: with no placement or removal the slots stay aligned and a
// Sample or Report touches no map.
func TestSampleReportAllocFree(t *testing.T) {
	n, nm, _ := setup(t)
	for _, id := range []string{"c-1", "c-2"} {
		c := container.New(id, spec(), "node-0", resources.Vector{CPU: 0.5, MemMB: 128}, 0)
		c.MaybeStart(0)
		if err := n.AddContainer(c); err != nil {
			t.Fatal(err)
		}
	}
	var rep Report
	cycle := func() {
		nm.Sample()
		nm.Sample()
		nm.Report(&rep)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state Sample+Report allocates %.1f objects/cycle, want 0", allocs)
	}
}
