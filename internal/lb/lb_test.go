package lb

import (
	"errors"
	"testing"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

func spec() workload.ServiceSpec {
	return workload.ServiceSpec{
		Name: "svc", Kind: workload.KindCPUBound,
		CPUPerRequest: 0.1, MemPerRequest: 10, BaselineMemMB: 50,
		InitialReplicaCPU: 1, InitialReplicaMemMB: 256,
		MinReplicas: 1, MaxReplicas: 4, Timeout: 30 * time.Second,
	}
}

func replica(id string) *container.Container {
	c := placed(container.New(id, spec(), "node", resources.Vector{CPU: 1, MemMB: 256}, 0))
	c.MaybeStart(0)
	return c
}

// nextSlot gives test replicas distinct slots, as a cluster's nodes would.
var nextSlot int

func placed(c *container.Container) *container.Container {
	c.Slot = nextSlot
	nextSlot++
	return c
}

func req(id uint64) *workload.Request { return workload.NewRequest(id, spec(), 0) }

func TestRoundRobinCycles(t *testing.T) {
	b := New(RoundRobin)
	reps := []*container.Container{replica("a"), replica("b"), replica("c")}
	var got []string
	for i := 0; i < 6; i++ {
		c, err := b.Route(req(uint64(i)), reps)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, c.ID)
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v, want %v", got, want)
		}
	}
}

func TestLeastOutstanding(t *testing.T) {
	b := New(LeastOutstanding)
	a, c := replica("a"), replica("b")
	a.Enqueue(req(1))
	a.Enqueue(req(2))
	c.Enqueue(req(3))
	picked, err := b.Route(req(4), []*container.Container{a, c})
	if err != nil {
		t.Fatal(err)
	}
	if picked.ID != "b" {
		t.Errorf("picked %s, want b (fewest in flight)", picked.ID)
	}
}

func TestLeastOutstandingTieBreaksByOrder(t *testing.T) {
	b := New(LeastOutstanding)
	reps := []*container.Container{replica("a"), replica("b")}
	picked, _ := b.Route(req(1), reps)
	if picked.ID != "a" {
		t.Errorf("picked %s, want a (first on tie)", picked.ID)
	}
}

func TestNoBackend(t *testing.T) {
	b := New(RoundRobin)
	if _, err := b.Route(req(1), nil); !errors.Is(err, ErrNoBackend) {
		t.Errorf("err = %v, want ErrNoBackend", err)
	}
}

func TestSkipsStartingReplicas(t *testing.T) {
	b := New(RoundRobin)
	starting := container.New("s", spec(), "node", resources.Vector{CPU: 1, MemMB: 256}, time.Hour)
	run := replica("r")
	for i := 0; i < 3; i++ {
		picked, err := b.Route(req(uint64(i)), []*container.Container{starting, run})
		if err != nil {
			t.Fatal(err)
		}
		if picked.ID != "r" {
			t.Errorf("picked starting replica")
		}
	}
}

func TestSkipsOverloadedReplicas(t *testing.T) {
	b := New(LeastOutstanding)
	over := replica("over")
	// Push resident memory past 3x the 256MB limit: 50 + 80*10 = 850.
	for i := 0; i < 80; i++ {
		over.Enqueue(req(uint64(i)))
	}
	if !over.Overloaded() {
		t.Fatal("setup: replica not overloaded")
	}
	ok := replica("ok")
	picked, err := b.Route(req(999), []*container.Container{over, ok})
	if err != nil {
		t.Fatal(err)
	}
	if picked.ID != "ok" {
		t.Error("routed to overloaded replica")
	}

	// All overloaded -> connection failure.
	if _, err := b.Route(req(1000), []*container.Container{over}); !errors.Is(err, ErrNoBackend) {
		t.Errorf("err = %v, want ErrNoBackend", err)
	}
}

func TestDistributionOverhead(t *testing.T) {
	b := New(RoundRobin)
	b.DistributionOverhead = 40 * time.Millisecond

	// One replica: no overhead.
	r1 := req(1)
	if _, err := b.Route(r1, []*container.Container{replica("a")}); err != nil {
		t.Fatal(err)
	}
	if r1.ExtraLatency != 0 {
		t.Errorf("single-replica overhead = %v, want 0", r1.ExtraLatency)
	}

	// Four replicas: 40ms * log2(4) = 80ms.
	reps := []*container.Container{replica("a"), replica("b"), replica("c"), replica("d")}
	r2 := req(2)
	if _, err := b.Route(r2, reps); err != nil {
		t.Fatal(err)
	}
	if r2.ExtraLatency != 80*time.Millisecond {
		t.Errorf("overhead = %v, want 80ms", r2.ExtraLatency)
	}
}

func TestPolicyStrings(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastOutstanding.String() != "least-outstanding" {
		t.Error("policy strings wrong")
	}
}

func TestWeightedLeastOutstanding(t *testing.T) {
	b := New(WeightedLeastOutstanding)
	big := container.New("big", spec(), "node", resources.Vector{CPU: 4, MemMB: 256}, 0)
	big.MaybeStart(0)
	small := container.New("small", spec(), "node", resources.Vector{CPU: 0.5, MemMB: 256}, 0)
	small.MaybeStart(0)

	// big has 4 in flight (score 1.0), small has 1 (score 2.0): the
	// weighted policy still prefers the big replica.
	for i := 0; i < 4; i++ {
		big.Enqueue(req(uint64(i)))
	}
	small.Enqueue(req(10))

	picked, err := b.Route(req(99), []*container.Container{small, big})
	if err != nil {
		t.Fatal(err)
	}
	if picked.ID != "big" {
		t.Errorf("picked %s, want big (lower load per CPU)", picked.ID)
	}

	// Plain LeastOutstanding would pick small here.
	lo := New(LeastOutstanding)
	picked, _ = lo.Route(req(100), []*container.Container{small, big})
	if picked.ID != "small" {
		t.Errorf("least-outstanding picked %s, want small", picked.ID)
	}
}

func TestWeightedScoreZeroCPU(t *testing.T) {
	c := container.New("z", spec(), "node", resources.Vector{MemMB: 256}, 0)
	c.MaybeStart(0)
	c.Enqueue(req(1))
	if s := weightedScore(c); s <= 0 || s != 100 {
		t.Errorf("weightedScore = %v, want 100 (1 inflight / 0.01 floor)", s)
	}
}

func TestWeightedPolicyString(t *testing.T) {
	if WeightedLeastOutstanding.String() != "weighted-least-outstanding" {
		t.Error("policy string wrong")
	}
}
