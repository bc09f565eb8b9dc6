package lb

import (
	"errors"
	"testing"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/resources"
)

// startingReplica is a replica still inside its start delay at probe time.
func startingReplica(id string, readyAt time.Duration) *container.Container {
	return placed(container.New(id, spec(), "node", resources.Vector{CPU: 1, MemMB: 256}, readyAt))
}

func TestAllStartingIsDistinguishedFromAbsent(t *testing.T) {
	b := New(RoundRobin)

	if _, err := b.RouteAt(0, req(1), nil); !errors.Is(err, ErrNoBackend) {
		t.Errorf("no replicas: err = %v, want ErrNoBackend", err)
	}

	reps := []*container.Container{startingReplica("a", 5*time.Second), startingReplica("b", 5*time.Second)}
	if _, err := b.RouteAt(0, req(2), reps); !errors.Is(err, ErrAllStarting) {
		t.Errorf("all starting: err = %v, want ErrAllStarting", err)
	}
	// ErrAllStarting is itself a no-backend condition callers may handle
	// generically — but the two must stay distinguishable.
	if errors.Is(ErrAllStarting, ErrNoBackend) {
		t.Error("ErrAllStarting must not alias ErrNoBackend")
	}

	reps[0].MaybeStart(5 * time.Second)
	if c, err := b.RouteAt(5*time.Second, req(3), reps); err != nil || c.ID != "a" {
		t.Errorf("one started: got %v, %v", c, err)
	}
}

func TestHealthCheckEjectsAndReadmits(t *testing.T) {
	down := map[string]bool{"a": true}
	b := New(RoundRobin)
	b.HealthCheck = func(now time.Duration, c *container.Container) bool { return !down[c.ID] }
	b.ProbeInterval = 2 * time.Second

	reps := []*container.Container{replica("a"), replica("b")}
	for i := 0; i < 4; i++ {
		c, err := b.RouteAt(0, req(uint64(i)), reps)
		if err != nil {
			t.Fatal(err)
		}
		if c.ID != "b" {
			t.Fatalf("routed to unhealthy backend %s", c.ID)
		}
	}

	// Recovery is observed only at the next probe.
	down["a"] = false
	if c, _ := b.RouteAt(time.Second, req(10), reps); c.ID != "b" {
		t.Error("cached probe should still eject a")
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		c, err := b.RouteAt(3*time.Second, req(20+uint64(i)), reps)
		if err != nil {
			t.Fatal(err)
		}
		seen[c.ID] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Errorf("after readmission rotation = %v, want both", seen)
	}
}

func TestAllEjectedIsNoBackendNotStarting(t *testing.T) {
	b := New(LeastOutstanding)
	b.HealthCheck = func(time.Duration, *container.Container) bool { return false }
	reps := []*container.Container{replica("a"), replica("b")}
	if _, err := b.RouteAt(0, req(1), reps); !errors.Is(err, ErrNoBackend) {
		t.Errorf("all ejected: err = %v, want ErrNoBackend", err)
	}
}

func TestProbeCacheExpires(t *testing.T) {
	calls := 0
	b := New(RoundRobin)
	b.HealthCheck = func(time.Duration, *container.Container) bool { calls++; return true }
	b.ProbeInterval = 2 * time.Second
	reps := []*container.Container{replica("a")}

	b.RouteAt(0, req(1), reps)
	b.RouteAt(time.Second, req(2), reps) // within interval: cached
	if calls != 1 {
		t.Fatalf("probe calls = %d, want 1 (cache hit)", calls)
	}
	b.RouteAt(2500*time.Millisecond, req(3), reps) // expired: re-probe
	if calls != 2 {
		t.Fatalf("probe calls = %d, want 2 (cache expiry)", calls)
	}
}

// TestReusedSlotStartsUnprobed: a container that inherits a departed
// container's slot is probed afresh instead of inheriting its cached
// verdict.
func TestReusedSlotStartsUnprobed(t *testing.T) {
	down := map[string]bool{"a": true}
	b := New(RoundRobin)
	b.HealthCheck = func(_ time.Duration, c *container.Container) bool { return !down[c.ID] }
	b.ProbeInterval = 2 * time.Second

	old := replica("a")
	if _, err := b.RouteAt(0, req(1), []*container.Container{old}); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("down backend: err = %v, want ErrNoBackend", err)
	}
	old.Remove()
	fresh := replica("b")
	fresh.Slot = old.Slot
	if c, err := b.RouteAt(time.Second, req(2), []*container.Container{old, fresh}); err != nil || c != fresh {
		t.Fatalf("reused slot: got %v, %v; want the fresh replica", c, err)
	}
}

// TestBalancersKeepIndependentProbeCaches: two balancers over one replica
// set probe on their own schedules, so one's cached verdict never leaks
// into the other's.
func TestBalancersKeepIndependentProbeCaches(t *testing.T) {
	down := map[string]bool{"a": true}
	calls := map[*Balancer]int{}
	mk := func() *Balancer {
		b := New(RoundRobin)
		b.ProbeInterval = 2 * time.Second
		b.HealthCheck = func(_ time.Duration, c *container.Container) bool {
			calls[b]++
			return !down[c.ID]
		}
		return b
	}
	early, late := mk(), mk()
	reps := []*container.Container{replica("a"), replica("b")}

	if c, _ := early.RouteAt(0, req(1), reps); c.ID != "b" {
		t.Fatalf("early balancer routed to down backend %s", c.ID)
	}
	down["a"] = false
	// late probes now and sees a healthy; early's cache still ejects a.
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		c, _ := late.RouteAt(time.Second, req(uint64(10+i)), reps)
		seen[c.ID] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Errorf("late balancer rotation = %v, want both", seen)
	}
	for i := 0; i < 4; i++ {
		if c, _ := early.RouteAt(time.Second, req(uint64(20+i)), reps); c.ID != "b" {
			t.Fatalf("early balancer lost its cached ejection of a: routed to %s", c.ID)
		}
	}
	if calls[early] != 2 || calls[late] != 2 {
		t.Errorf("probe calls early=%d late=%d, want 2 each", calls[early], calls[late])
	}
}
