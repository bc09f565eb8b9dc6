package core

import "math"

// Metric selects which resource dimension a horizontal autoscaler observes.
type Metric int

// Metrics.
const (
	MetricCPU Metric = iota + 1
	MetricNet
)

// Kubernetes implements the horizontal autoscaling algorithm of §IV-A1:
//
//	util_r       = usage_r / requested_r
//	NumReplicas  = ceil( Σ util_r / Target )
//
// with the 0.1 tolerance thrash guard, min/max replica clamps, and the
// 3 s / 50 s scale-up / scale-down intervals. The same decision procedure
// parameterised on egress bandwidth is the paper's network scaling
// algorithm (§IV-A2); see NewNetworkHPA.
type Kubernetes struct {
	cfg    Config
	metric Metric
	gate   *Gate
	name   string

	// rd is Decide's scratch, reused every round.
	rd Round
}

var _ Algorithm = (*Kubernetes)(nil)

// NewKubernetes builds the CPU-driven baseline with the paper's settings.
func NewKubernetes(cfg Config) *Kubernetes {
	return &Kubernetes{
		cfg:    cfg,
		metric: MetricCPU,
		gate:   NewGate(cfg.ScaleUpInterval, cfg.ScaleDownInterval),
		name:   "kubernetes",
	}
}

// NewNetworkHPA builds the dedicated network scaling algorithm: identical
// decision procedure with outgoing bandwidth substituted for CPU usage.
func NewNetworkHPA(cfg Config) *Kubernetes {
	return &Kubernetes{
		cfg:    cfg,
		metric: MetricNet,
		gate:   NewGate(cfg.ScaleUpInterval, cfg.ScaleDownInterval),
		name:   "network",
	}
}

// Name implements Algorithm.
func (k *Kubernetes) Name() string { return k.name }

// Decide implements Algorithm.
func (k *Kubernetes) Decide(snap Snapshot) Plan {
	// One round for every service: services planned later must see the
	// placements of services planned earlier, or they all pile onto the
	// same "emptiest" node.
	rd := &k.rd
	rd.Reset(snap, k.cfg.Placement)
	for i := range snap.Services {
		k.decideService(rd, snap, i)
	}
	return rd.Plan()
}

func (k *Kubernetes) usage(r ReplicaStats) float64 {
	if k.metric == MetricNet {
		return r.Usage.NetMbps
	}
	return r.Usage.CPU
}

func (k *Kubernetes) requested(r ReplicaStats) float64 {
	if k.metric == MetricNet {
		return r.Requested.NetMbps
	}
	return r.Requested.CPU
}

func (k *Kubernetes) decideService(rd *Round, snap Snapshot, i int) {
	svc := snap.Services[i]
	info := svc.Info
	cur := len(svc.Replicas)

	// Fault-tolerance first: enforce the replica bounds unconditionally.
	if cur < info.MinReplicas {
		rd.AddReplicas(i, info.MinReplicas-cur)
		return
	}
	if cur > info.MaxReplicas {
		rd.RemoveNewest(i, cur-info.MaxReplicas)
		return
	}
	if cur == 0 {
		return
	}

	target := info.TargetUtil
	if target <= 0 {
		return
	}

	var utilSum, utilAvg float64
	for _, r := range svc.Replicas {
		req := k.requested(r)
		if req <= 0 {
			continue
		}
		utilSum += k.usage(r) / req
	}
	utilAvg = utilSum / float64(cur)

	// Thrash guard: skip rescaling inside the tolerance band.
	if math.Abs(utilAvg/target-1) <= k.cfg.Tolerance {
		return
	}

	want := int(math.Ceil(utilSum / target))
	if want < info.MinReplicas {
		want = info.MinReplicas
	}
	if want > info.MaxReplicas {
		want = info.MaxReplicas
	}

	switch {
	case want > cur:
		if !k.gate.CanUp(info.Ord, snap.Now) {
			return
		}
		if rd.AddReplicas(i, want-cur) > 0 {
			k.gate.MarkUp(info.Ord, snap.Now)
		}
	case want < cur:
		if !k.gate.CanDown(info.Ord, snap.Now) {
			return
		}
		rd.RemoveNewest(i, cur-want)
		k.gate.MarkDown(info.Ord, snap.Now)
	}
}
