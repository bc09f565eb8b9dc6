package core

import (
	"math"
	"testing"
	"time"

	"hyscale/internal/resources"
)

// captureAlgo records the snapshot it was handed.
type captureAlgo struct{ last Snapshot }

func (c *captureAlgo) Name() string { return "capture" }
func (c *captureAlgo) Decide(s Snapshot) Plan {
	c.last = s
	return Plan{}
}

func snapWithUsage(now time.Duration, cpu float64) Snapshot {
	snap := Snapshot{
		Now: now,
		Services: []ServiceStats{{
			Info: info(),
			Replicas: []ReplicaStats{{
				ContainerID: "r0", NodeID: "A", Routable: true,
				Requested: resources.Vector{CPU: 1, MemMB: 512},
				Usage:     resources.Vector{CPU: cpu, MemMB: 300},
			}},
		}},
		Nodes: []NodeStats{{ID: "A", Capacity: resources.Vector{CPU: 4, MemMB: 8192},
			Available: resources.Vector{CPU: 3, MemMB: 7000}, Hosts: []string{"svc"}}},
	}
	snap.IndexHosts()
	return snap
}

func TestPredictiveExtrapolatesRisingUsage(t *testing.T) {
	inner := &captureAlgo{}
	p := NewPredictive(inner, 5*time.Second)

	// First round: no history, usage passes through unchanged.
	p.Decide(snapWithUsage(5*time.Second, 1.0))
	if got := inner.last.Services[0].Replicas[0].Usage.CPU; got != 1.0 {
		t.Fatalf("first round usage = %v, want raw 1.0", got)
	}

	// Second round 5s later: usage rose 1.0 -> 1.4; horizon == dt, so the
	// wrapped algorithm sees 1.8.
	p.Decide(snapWithUsage(10*time.Second, 1.4))
	if got := inner.last.Services[0].Replicas[0].Usage.CPU; math.Abs(got-1.8) > 1e-9 {
		t.Fatalf("extrapolated usage = %v, want 1.8", got)
	}

	// Third round: usage held at 1.4. The trend must be computed from the
	// RAW previous value (1.4), not the extrapolated 1.8 — flat stays 1.4.
	p.Decide(snapWithUsage(15*time.Second, 1.4))
	if got := inner.last.Services[0].Replicas[0].Usage.CPU; math.Abs(got-1.4) > 1e-9 {
		t.Fatalf("flat-trend usage = %v, want 1.4 (no compounding)", got)
	}
}

func TestPredictiveDampsDownwardTrend(t *testing.T) {
	inner := &captureAlgo{}
	p := NewPredictive(inner, 5*time.Second)
	p.Decide(snapWithUsage(5*time.Second, 2.0))
	p.Decide(snapWithUsage(10*time.Second, 1.0)) // fell by 1.0; follow at half
	if got := inner.last.Services[0].Replicas[0].Usage.CPU; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("down-trend usage = %v, want 0.5", got)
	}
}

func TestPredictiveNeverNegative(t *testing.T) {
	inner := &captureAlgo{}
	p := NewPredictive(inner, 30*time.Second)
	p.Decide(snapWithUsage(5*time.Second, 2.0))
	p.Decide(snapWithUsage(10*time.Second, 0.1)) // steep fall, long horizon
	if got := inner.last.Services[0].Replicas[0].Usage.CPU; got < 0 {
		t.Fatalf("usage went negative: %v", got)
	}
}

func TestPredictiveName(t *testing.T) {
	p := NewPredictive(NewHyScaleCPUMem(DefaultConfig()), 5*time.Second)
	if p.Name() != "hybridmem-predictive" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestPredictiveNewReplicasPassThrough(t *testing.T) {
	inner := &captureAlgo{}
	p := NewPredictive(inner, 5*time.Second)
	p.Decide(snapWithUsage(5*time.Second, 1.0))

	// A replica with no history must pass through unmodified.
	snap := snapWithUsage(10*time.Second, 1.4)
	snap.Services[0].Replicas = append(snap.Services[0].Replicas, ReplicaStats{
		ContainerID: "r1", NodeID: "A", Routable: true,
		Requested: resources.Vector{CPU: 1, MemMB: 512},
		Usage:     resources.Vector{CPU: 0.7},
	})
	p.Decide(snap)
	if got := inner.last.Services[0].Replicas[1].Usage.CPU; got != 0.7 {
		t.Errorf("fresh replica usage = %v, want raw 0.7", got)
	}
}
