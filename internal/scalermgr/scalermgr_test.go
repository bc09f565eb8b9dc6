package scalermgr

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hyscale/internal/core"
	"hyscale/internal/resources"
)

// --- window aggregator -------------------------------------------------

func TestWindowEmpty(t *testing.T) {
	w := newWindow(time.Minute)
	if _, ok := w.Avg(0); ok {
		t.Error("Avg on empty window reported ok")
	}
	if _, ok := w.Max(0); ok {
		t.Error("Max on empty window reported ok")
	}
	if w.Len() != 0 {
		t.Errorf("Len = %d, want 0", w.Len())
	}
}

func TestWindowSingleSample(t *testing.T) {
	w := newWindow(time.Minute)
	w.Record(10*time.Second, 3.5)
	avg, ok := w.Avg(10 * time.Second)
	if !ok || avg != 3.5 {
		t.Errorf("Avg = %v, %v; want 3.5, true", avg, ok)
	}
	max, ok := w.Max(10 * time.Second)
	if !ok || max != 3.5 {
		t.Errorf("Max = %v, %v; want 3.5, true", max, ok)
	}
}

func TestWindowPrunesAgedSamples(t *testing.T) {
	w := newWindow(time.Minute)
	w.Record(0, 100)
	w.Record(30*time.Second, 2)
	// At t=59s the first sample is 59s old: still inside.
	if avg, _ := w.Avg(59 * time.Second); avg != 51 {
		t.Errorf("Avg at 59s = %v, want 51", avg)
	}
	// At t=60s it is exactly window-width old: pruned.
	if avg, _ := w.Avg(60 * time.Second); avg != 2 {
		t.Errorf("Avg at 60s = %v, want 2", avg)
	}
	// Long after the last sample the window is empty again.
	if _, ok := w.Avg(10 * time.Minute); ok {
		t.Error("window still has an opinion long after its last sample")
	}
}

// TestBurstWindowOutrunsStable is the manager's core scaling asymmetry: a
// short spike moves the burst window's max long before it moves the stable
// window's average, so scale-up reacts fast while scale-down stays damped.
func TestBurstWindowOutrunsStable(t *testing.T) {
	stable := newWindow(DefaultStableWindow) // 60 s avg
	burst := newWindow(DefaultBurstWindow)   // 15 s max
	// 50 s of calm then a 10 s spike, sampled every 5 s.
	for at := 0 * time.Second; at <= 60*time.Second; at += 5 * time.Second {
		v := 1.0
		if at >= 50*time.Second {
			v = 8.0
		}
		stable.Record(at, v)
		burst.Record(at, v)
	}
	now := 60 * time.Second
	avg, _ := stable.Avg(now)
	max, _ := burst.Max(now)
	if max != 8 {
		t.Errorf("burst max = %v, want 8", max)
	}
	if avg >= max {
		t.Errorf("stable avg %v should lag burst max %v during a spike", avg, max)
	}
	// With a 1.0 target the burst window demands 8 replicas while the
	// stable window justifies far fewer: scale-up is burst-driven.
	if sn, bn := need(avg, 1), need(max, 1); bn <= sn {
		t.Errorf("burstNeed %d should exceed stableNeed %d", bn, sn)
	}
}

// --- merge policies ----------------------------------------------------

func TestMergeMax(t *testing.T) {
	got := mergeMax([]Opinion{
		{Metric: "cpu", Desired: 2},
		{Metric: "memory", Desired: 7},
		{Metric: "net", Desired: 4},
	})
	if got != 7 {
		t.Errorf("mergeMax = %d, want 7", got)
	}
}

func TestMergeWeighted(t *testing.T) {
	// (3*4 + 1*1) / 4 = 3.25 → ceil → 4.
	got := mergeWeighted([]Opinion{
		{Metric: "cpu", Desired: 4, Weight: 3},
		{Metric: "memory", Desired: 1, Weight: 1},
	})
	if got != 4 {
		t.Errorf("mergeWeighted = %d, want 4", got)
	}
	// Zero weights fall back to weight 1: plain ceil-average.
	got = mergeWeighted([]Opinion{
		{Metric: "cpu", Desired: 1},
		{Metric: "net", Desired: 2},
	})
	if got != 2 {
		t.Errorf("mergeWeighted with default weights = %d, want 2", got)
	}
}

func TestUnknownMergePolicyRejected(t *testing.T) {
	_, err := New(core.DefaultConfig(), Config{MergePolicy: "median"}, false)
	if err == nil {
		t.Fatal("New accepted an unknown merge policy")
	}
}

// --- cost allocator bounds property ------------------------------------

// TestCostAllocatorRespectsMinReplicas drives the cost-optimal manager over
// randomized snapshot sequences — random load, random freshness gaps, random
// per-service bounds — applies every plan to a synthetic cluster, and checks
// the bounds invariant after every round: no plan may take a service below
// MinReplicas (or above MaxReplicas), no matter which allocator path
// (optimizer, fallback, last-resort hold, scale-to-zero) produced it.
func TestCostAllocatorRespectsMinReplicas(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mgr, err := New(core.DefaultConfig(), Config{}, true)
			if err != nil {
				t.Fatal(err)
			}

			type svc struct {
				info     core.ServiceInfo
				replicas []core.ReplicaStats
				nextID   int
			}
			services := make([]*svc, 3)
			for i := range services {
				min := rng.Intn(3) // 0..2 — exercise scale-to-zero too
				s := &svc{info: core.ServiceInfo{
					Name:          fmt.Sprintf("svc-%d", i),
					Ord:           i,
					MinReplicas:   min,
					MaxReplicas:   min + 1 + rng.Intn(5),
					TargetUtil:    0.5,
					BaselineMemMB: 100,
					InitialAlloc:  resources.Vector{CPU: 0.5, MemMB: 256, NetMbps: 20},
				}}
				for r := 0; r < min+1; r++ {
					s.replicas = append(s.replicas, core.ReplicaStats{
						ContainerID: fmt.Sprintf("svc-%d-c%d", i, s.nextID),
						NodeID:      fmt.Sprintf("node-%d", s.nextID%4),
						Requested:   s.info.InitialAlloc,
						Routable:    true,
					})
					s.nextID++
				}
				services[i] = s
			}

			now := time.Duration(0)
			for round := 0; round < 200; round++ {
				// Random decision-round gap: mostly the 5 s monitor period,
				// occasionally a long stall that trips the freshness check.
				if rng.Intn(10) == 0 {
					now += time.Duration(20+rng.Intn(600)) * time.Second
				} else {
					now += 5 * time.Second
				}

				snap := core.Snapshot{Now: now}
				for _, s := range services {
					for j := range s.replicas {
						r := &s.replicas[j]
						r.Usage = resources.Vector{
							CPU:     r.Requested.CPU * rng.Float64() * 1.6,
							MemMB:   100 + (r.Requested.MemMB-100)*rng.Float64()*1.4,
							NetMbps: r.Requested.NetMbps * rng.Float64() * 1.6,
						}
						r.Inflight = rng.Intn(12)
					}
					snap.Services = append(snap.Services, core.ServiceStats{Info: s.info, Replicas: s.replicas})
				}
				for n := 0; n < 4; n++ {
					snap.Nodes = append(snap.Nodes, core.NodeStats{
						ID:        fmt.Sprintf("node-%d", n),
						Capacity:  resources.Vector{CPU: 8, MemMB: 16384, NetMbps: 1000},
						Available: resources.Vector{CPU: 4, MemMB: 8192, NetMbps: 500},
					})
				}
				snap.IndexHosts()

				plan := mgr.Decide(snap)

				// Apply the plan to the synthetic cluster.
				for _, a := range plan.Actions {
					switch act := a; act.Kind {
					case core.ScaleOut:
						for _, s := range services {
							if s.info.Ord == int(act.Svc)-1 {
								s.replicas = append(s.replicas, core.ReplicaStats{
									ContainerID: fmt.Sprintf("%s-c%d", s.info.Name, s.nextID),
									NodeID:      act.NodeID,
									Requested:   act.Alloc,
									Routable:    true,
								})
								s.nextID++
							}
						}
					case core.ScaleIn:
						for _, s := range services {
							for j, r := range s.replicas {
								if r.ContainerID == act.ContainerID {
									s.replicas = append(s.replicas[:j], s.replicas[j+1:]...)
									break
								}
							}
						}
					}
				}

				for _, s := range services {
					if got := len(s.replicas); got < s.info.MinReplicas {
						t.Fatalf("round %d: %s at %d replicas, below MinReplicas %d",
							round, s.info.Name, got, s.info.MinReplicas)
					}
					if got := len(s.replicas); got > s.info.MaxReplicas {
						t.Fatalf("round %d: %s at %d replicas, above MaxReplicas %d",
							round, s.info.Name, got, s.info.MaxReplicas)
					}
				}
			}
		})
	}
}

// steadySnapshot builds four services of two replicas each, every replica
// at 40% of its CPU request with its memory near baseline and nothing
// queued, so both manager variants want exactly the two replicas each
// service has.
func steadySnapshot() core.Snapshot {
	var snap core.Snapshot
	for i := 0; i < 4; i++ {
		info := core.ServiceInfo{Name: fmt.Sprintf("svc-%d", i), Ord: i, MinReplicas: 1, MaxReplicas: 4,
			TargetUtil: 0.5, BaselineMemMB: 100, InitialAlloc: resources.Vector{CPU: 1, MemMB: 512, NetMbps: 100}}
		svc := core.ServiceStats{Info: info}
		for j := 0; j < 2; j++ {
			svc.Replicas = append(svc.Replicas, core.ReplicaStats{
				ContainerID: fmt.Sprintf("%s-%d", info.Name, j),
				NodeID:      fmt.Sprintf("node-%d", (i+j)%4),
				Requested:   info.InitialAlloc,
				Usage:       resources.Vector{CPU: 0.4, MemMB: 150, NetMbps: 20},
				Routable:    true,
			})
		}
		snap.Services = append(snap.Services, svc)
	}
	for n := 0; n < 4; n++ {
		snap.Nodes = append(snap.Nodes, core.NodeStats{
			ID:        fmt.Sprintf("node-%d", n),
			Capacity:  resources.Vector{CPU: 8, MemMB: 16384, NetMbps: 1000},
			Available: resources.Vector{CPU: 6, MemMB: 15360, NetMbps: 900},
		})
	}
	snap.IndexHosts()
	return snap
}

// TestManagerDecideAllocFree pins the manager's steady state: once every
// window has filled, a Decide that records each scaler's sample, merges the
// opinions and plans nothing allocates nothing, for the plain manager and
// for the cost allocator, whose per-node resident counts are scratch too.
func TestManagerDecideAllocFree(t *testing.T) {
	for _, cost := range []bool{false, true} {
		mgr, err := New(core.DefaultConfig(), Config{}, cost)
		if err != nil {
			t.Fatal(err)
		}
		snap := steadySnapshot()
		decide := func() {
			snap.Now += 5 * time.Second
			if plan := mgr.Decide(snap); !plan.Empty() {
				t.Fatalf("%s at %v: steady state planned %d actions", mgr.Name(), snap.Now, len(plan.Actions))
			}
		}
		// Past the 60 s stable window, so every window holds its full set of
		// samples and prunes one per round.
		for i := 0; i < 20; i++ {
			decide()
		}
		if allocs := testing.AllocsPerRun(100, decide); allocs != 0 {
			t.Errorf("%s: steady-state Decide allocates %.1f objects, want 0", mgr.Name(), allocs)
		}
	}
}
