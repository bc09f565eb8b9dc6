package container

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

func spec() workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: "svc", Kind: workload.KindCPUBound,
		CPUPerRequest: 1.0, CPUOverheadPerRequest: 0,
		MemPerRequest: 50, BaselineMemMB: 100,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 512,
		MinReplicas: 1, MaxReplicas: 4,
		Timeout: 30 * time.Second,
	}
}

func newRunning(t *testing.T, s workload.ServiceSpec, alloc resources.Vector) *Container {
	t.Helper()
	c := New("c-0", s, "node-0", alloc, 0)
	c.MaybeStart(0)
	if !c.Routable() {
		t.Fatal("container not running")
	}
	return c
}

func TestLifecycle(t *testing.T) {
	c := New("c-0", spec(), "node-0", resources.Vector{CPU: 1, MemMB: 512}, 2*time.Second)
	if c.State != StateStarting || c.Routable() {
		t.Fatal("fresh container should be Starting and unroutable")
	}
	c.MaybeStart(time.Second)
	if c.State != StateStarting {
		t.Fatal("started before ReadyAt")
	}
	c.MaybeStart(2 * time.Second)
	if c.State != StateRunning || !c.Routable() {
		t.Fatal("did not start at ReadyAt")
	}
	c.Remove()
	if c.State != StateRemoved || c.Routable() {
		t.Fatal("removed container should be unroutable")
	}
}

func TestStateStrings(t *testing.T) {
	if StateStarting.String() != "starting" || StateRunning.String() != "running" || StateRemoved.String() != "removed" {
		t.Error("state strings wrong")
	}
}

func TestUpdateRejectsNegative(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 1, MemMB: 512})
	if err := c.Update(resources.Vector{CPU: -1}); err == nil {
		t.Error("negative allocation accepted")
	}
	if err := c.Update(resources.Vector{CPU: 2, MemMB: 1024}); err != nil {
		t.Errorf("valid update rejected: %v", err)
	}
	if c.Alloc.CPU != 2 {
		t.Errorf("Alloc.CPU = %v after update, want 2", c.Alloc.CPU)
	}
}

func TestAdvanceCompletesCPUWork(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 1, MemMB: 512})
	r := workload.NewRequest(1, spec(), 0) // needs 1.0 cpu-seconds
	c.Enqueue(r)

	// 1 core for 0.5s: half done.
	res := c.Advance(0, 500*time.Millisecond, 1.0, 0)
	if len(res.Completed) != 0 {
		t.Fatal("completed too early")
	}
	if math.Abs(r.RemainingCPU-0.5) > 1e-9 {
		t.Fatalf("RemainingCPU = %v, want 0.5", r.RemainingCPU)
	}

	// Another full second at 1 core: completes mid-tick at 0.5s + 0.5s.
	res = c.Advance(500*time.Millisecond, time.Second, 1.0, 0)
	if len(res.Completed) != 1 {
		t.Fatalf("Completed = %d, want 1", len(res.Completed))
	}
	if got := res.Completed[0].At; got != time.Second {
		t.Errorf("completion at %v, want 1s (sub-tick interpolation)", got)
	}
	if c.Completed() != 1 || c.Inflight() != 0 {
		t.Errorf("counters wrong: completed=%d inflight=%d", c.Completed(), c.Inflight())
	}
}

func TestAdvanceProcessorSharing(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 2, MemMB: 512})
	r1 := workload.NewRequest(1, spec(), 0)
	r2 := workload.NewRequest(2, spec(), 0)
	c.Enqueue(r1)
	c.Enqueue(r2)

	// 2 cores across 2 requests: 1 core each for 1s finishes both (work=1).
	res := c.Advance(0, time.Second, 2.0, 0)
	if len(res.Completed) != 2 {
		t.Fatalf("Completed = %d, want 2", len(res.Completed))
	}
}

func TestAdvanceSingleRequestCappedAtOneCore(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 4, MemMB: 512})
	r := workload.NewRequest(1, spec(), 0)
	c.Enqueue(r)
	// 4 cores delivered but a single-threaded request uses at most 1.
	c.Advance(0, 500*time.Millisecond, 4.0, 0)
	if math.Abs(r.RemainingCPU-0.5) > 1e-9 {
		t.Errorf("RemainingCPU = %v, want 0.5 (1-core cap)", r.RemainingCPU)
	}
}

func TestAdvanceNetworkPhase(t *testing.T) {
	s := spec()
	s.CPUPerRequest = 0.1
	s.NetPerRequest = 10 // megabits
	c := newRunning(t, s, resources.Vector{CPU: 1, MemMB: 512, NetMbps: 100})
	r := workload.NewRequest(1, s, 0)
	c.Enqueue(r)

	// CPU phase finishes within the first tick; request moves to net phase.
	c.Advance(0, 200*time.Millisecond, 1.0, 100)
	if r.Phase != workload.PhaseNet {
		t.Fatalf("Phase = %v, want PhaseNet", r.Phase)
	}
	if c.NetFlowCount(c.Tally()) != 1 {
		t.Error("net flow not visible")
	}

	// 100 Mbps for 0.1s = 10 Mb: transmission completes.
	res := c.Advance(200*time.Millisecond, 100*time.Millisecond, 0, 100)
	if len(res.Completed) != 1 {
		t.Fatalf("Completed = %d, want 1", len(res.Completed))
	}
}

func TestAdvanceTimeout(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 1, MemMB: 512})
	r := workload.NewRequest(1, spec(), 0) // deadline at 30s
	c.Enqueue(r)
	// No CPU delivered; at the 30s boundary the request times out.
	res := c.Advance(29*time.Second+900*time.Millisecond, 100*time.Millisecond, 0, 0)
	if len(res.TimedOut) != 1 {
		t.Fatalf("TimedOut = %d, want 1", len(res.TimedOut))
	}
	if c.Inflight() != 0 {
		t.Error("timed-out request still in flight")
	}
}

func TestMemUsageAndSwap(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 1, MemMB: 180})
	if got := c.Tally().MemMB; got != 100 {
		t.Fatalf("baseline MemMB = %v, want 100", got)
	}
	if c.Swapping(c.Tally()) {
		t.Fatal("swapping below limit")
	}
	c.Enqueue(workload.NewRequest(1, spec(), 0)) // +50MB
	c.Enqueue(workload.NewRequest(2, spec(), 0)) // +50MB -> 200 > 180
	if !c.Swapping(c.Tally()) {
		t.Fatal("not swapping above limit")
	}
	if depth := c.SwapDepth(c.Tally()); math.Abs(depth-200.0/180) > 1e-9 {
		t.Errorf("SwapDepth = %v, want %v", depth, 200.0/180)
	}
	if c.Overloaded() {
		t.Error("overloaded too early")
	}
	for i := 3; i <= 10; i++ {
		c.Enqueue(workload.NewRequest(uint64(i), spec(), 0))
	}
	// 100 + 10*50 = 600 > 3*180.
	if !c.Overloaded() {
		t.Error("not overloaded at >3x limit")
	}
}

func TestSwapDepthWithoutLimit(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 1})
	c.Enqueue(workload.NewRequest(1, spec(), 0))
	if c.SwapDepth(c.Tally()) != 0 || c.Swapping(c.Tally()) || c.Overloaded() {
		t.Error("no-limit container should never swap")
	}
}

func TestRemoveKillsInflight(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 1, MemMB: 512})
	c.Enqueue(workload.NewRequest(1, spec(), 0))
	c.Enqueue(workload.NewRequest(2, spec(), 0))
	killed := c.Remove()
	if len(killed) != 2 {
		t.Fatalf("killed = %d, want 2", len(killed))
	}
	if c.Inflight() != 0 {
		t.Error("in-flight not cleared")
	}
}

func TestStressCPUDemand(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 2, MemMB: 512})
	c.StressCPUDemand = 4
	if got := c.CPUDemand(c.Tally()); got != 4 {
		t.Fatalf("CPUDemand = %v, want 4", got)
	}
	// Usage reflects the granted rate even with no requests.
	c.Advance(0, time.Second, 3.0, 0)
	if got := c.LastUsage().CPU; math.Abs(got-3) > 1e-9 {
		t.Errorf("stress usage = %v, want 3", got)
	}
}

func TestStressNetFlows(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 1, MemMB: 512})
	c.StressNetFlows = 32
	if got := c.NetFlowCount(c.Tally()); got != 32 {
		t.Fatalf("NetFlowCount = %d, want 32", got)
	}
	c.Advance(0, time.Second, 0, 250)
	if got := c.LastUsage().NetMbps; math.Abs(got-250) > 1e-9 {
		t.Errorf("stress net usage = %v, want 250", got)
	}
}

func TestUsageAccounting(t *testing.T) {
	c := newRunning(t, spec(), resources.Vector{CPU: 1, MemMB: 512})
	r := workload.NewRequest(1, spec(), 0)
	c.Enqueue(r)
	c.Advance(0, time.Second, 0.5, 0)
	u := c.LastUsage()
	if math.Abs(u.CPU-0.5) > 1e-9 {
		t.Errorf("usage CPU = %v, want 0.5", u.CPU)
	}
	if u.MemMB != c.Tally().MemMB {
		t.Errorf("usage Mem = %v, want %v", u.MemMB, c.Tally().MemMB)
	}
}

func TestCPUDemandCountsOnlyCPUPhase(t *testing.T) {
	s := spec()
	s.CPUPerRequest = 0.1
	s.NetPerRequest = 100
	c := newRunning(t, s, resources.Vector{CPU: 1, MemMB: 512})
	r := workload.NewRequest(1, s, 0)
	c.Enqueue(r)
	if c.CPUDemand(c.Tally()) != 1 {
		t.Fatal("CPU-phase request should demand CPU")
	}
	c.Advance(0, 200*time.Millisecond, 1, 0) // finish CPU phase
	if r.Phase != workload.PhaseNet {
		t.Fatalf("Phase = %v, want net", r.Phase)
	}
	if c.CPUDemand(c.Tally()) != 0 {
		t.Error("net-phase request still demands CPU")
	}
}

// TestOverloadedCacheMatchesTally drives a container through random
// sequences of every in-flight-set change — admissions, releases from the
// middle of the queue, physics ticks that complete, time out and park
// PhaseWait parents, vertical updates and removal — and checks after each
// step that the cached resident memory is bit-identical to a fresh Tally
// whenever it is held, and that the overload verdict matches Tally's.
func TestOverloadedCacheMatchesTally(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := spec()
	s.BaselineMemMB = 300.3
	for trial := 0; trial < 50; trial++ {
		c := newRunning(t, s, resources.Vector{CPU: 1, MemMB: 200})
		now := time.Duration(0)
		id := uint64(0)
		for step := 0; step < 300; step++ {
			var op string
			switch k := rng.Intn(20); {
			case k < 9:
				op = "enqueue"
				id++
				r := workload.NewRequest(id, s, now)
				r.MemFootprintMB = rng.Float64() * 80
				r.RemainingCPU = rng.Float64() * 0.5
				r.Deadline = now + time.Duration(rng.Intn(3000))*time.Millisecond
				if rng.Intn(4) == 0 {
					r.PendingChildren = 1 // parks in PhaseWait when its own work ends
				}
				c.Enqueue(r)
			case k < 12:
				op = "release"
				if held := c.InflightRequests(); len(held) > 0 {
					c.Release(held[rng.Intn(len(held))], rng.Intn(2) == 0)
				}
			case k < 17:
				op = "advance"
				dt := 100 * time.Millisecond
				var res AdvanceResult
				c.AdvanceInto(&res, c.Tally(), now, dt, rng.Float64()*4, rng.Float64()*100)
				now += dt
			case k < 19:
				op = "update"
				if err := c.Update(resources.Vector{CPU: 1, MemMB: float64(rng.Intn(400))}); err != nil {
					t.Fatal(err)
				}
			default:
				op = "remove"
				c.Remove()
			}
			want := c.Tally().MemMB
			if c.residentOK && c.residentMB != want {
				t.Fatalf("trial %d step %d (%s): cached resident %v, Tally %v", trial, step, op, c.residentMB, want)
			}
			// Skipping some reads lets admissions land on a stale cache too.
			if rng.Intn(3) == 0 {
				continue
			}
			if got, want := c.Overloaded(), c.Alloc.MemMB > 0 && want > 3*c.Alloc.MemMB; got != want {
				t.Fatalf("trial %d step %d (%s): Overloaded = %v, Tally says %v", trial, step, op, got, want)
			}
		}
	}
}
