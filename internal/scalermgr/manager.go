package scalermgr

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"hyscale/internal/core"
)

// Recommendation is one scaler's latest per-service recommendation, kept
// for observability (httpapi metrics, obs journal events).
type Recommendation struct {
	Service string `json:"service"`
	Scaler  string `json:"scaler"`
	// Stable and Burst are the replica counts the two windows justify.
	Stable int `json:"stable"`
	Burst  int `json:"burst"`
	// Desired is the scaler's recommendation: max(Stable, Burst).
	Desired int `json:"desired"`
	// Merged is the manager's post-merge decision for the service and
	// Current the replica count it saw.
	Merged  int `json:"merged"`
	Current int `json:"current"`
}

// scalerState is one scaler's aggregators for one service.
type scalerState struct {
	cfg    ScalerConfig
	stable *window
	burst  *window
}

// svcState is the manager's per-service memory.
type svcState struct {
	scalers []*scalerState

	// recs holds the service's latest per-scaler recommendations, refreshed
	// every decision round the service appears in.
	recs []Recommendation

	// lastSampleAt feeds the freshness check: a decision-round gap larger
	// than FreshWithin (monitor crash, checkpoint restore) drops the cost
	// allocator to its fallback path for one round.
	lastSampleAt time.Duration
	haveSample   bool

	// lastWant is the last merged recommendation the optimizer produced —
	// the fallback allocation when metrics go stale.
	lastWant int
	haveWant bool

	// zeroSince tracks how long merged demand has been zero, for
	// retention-period-aware scale-to-zero.
	zeroSince    time.Duration
	trackingZero bool
}

// Manager runs several scalers per service and merges their
// recommendations; see the package documentation for the architecture.
// It implements core.Algorithm.
type Manager struct {
	name    string
	cost    bool
	cfg     Config
	coreCfg core.Config
	merge   MergeFunc
	gate    *core.Gate

	// services is the per-service memory, indexed by ServiceInfo.Ord; nil
	// until the service first reaches the scalers.
	services []*svcState

	// observer, when set, receives one callback per service per round in
	// which the merged recommendation differs from the current replica
	// count. Wired to the obs journal by the platform.
	observer func(at time.Duration, service, detail string)

	// rd is Decide's planning round, reused every round; ops, stableOps and
	// nodeLoad are its other scratch. nodeLoad counts the cost allocator's
	// residents per ledger slot (core.ReplicaStats.Slot).
	rd             core.Round
	ops, stableOps []Opinion
	nodeLoad       []int
}

var _ core.Algorithm = (*Manager)(nil)

// New builds a manager algorithm. costOptimal selects the "manager-cost"
// behaviour (decision hierarchy, binpack, drain-preferring scale-in,
// scale-to-zero); coreCfg supplies the shared knobs (rescale intervals,
// default placement).
func New(coreCfg core.Config, cfg Config, costOptimal bool) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	fn, ok := mergePolicy(cfg.MergePolicy)
	if !ok {
		return nil, fmt.Errorf("scalermgr: unknown merge policy %q", cfg.MergePolicy)
	}
	name := "manager"
	if costOptimal {
		name = "manager-cost"
	}
	return &Manager{
		name:    name,
		cost:    costOptimal,
		cfg:     cfg,
		coreCfg: coreCfg,
		merge:   fn,
		gate:    core.NewGate(coreCfg.ScaleUpInterval, coreCfg.ScaleDownInterval),
	}, nil
}

// Name implements core.Algorithm.
func (m *Manager) Name() string { return m.name }

// SetRecommendObserver installs the per-service recommendation callback
// (at most one; nil clears). The platform uses a structural type assertion
// on this method to wire the obs journal without an import cycle.
func (m *Manager) SetRecommendObserver(fn func(at time.Duration, service, detail string)) {
	m.observer = fn
}

// Recommendations returns the latest per-scaler recommendations in
// deterministic order (service name, then scaler position).
func (m *Manager) Recommendations() []Recommendation {
	var out []Recommendation
	for _, st := range m.services {
		if st != nil {
			out = append(out, st.recs...)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Service < out[b].Service })
	return out
}

// Decide implements core.Algorithm.
func (m *Manager) Decide(snap core.Snapshot) core.Plan {
	// One round shared across services, so later placements see earlier
	// ones. The cost allocator forces binpack so emptied machines stay
	// empty.
	placement := m.coreCfg.Placement
	if m.cost {
		placement = core.PlacementBinPack
	}
	rd := &m.rd
	rd.Reset(snap, placement)
	// The cost allocator drains machines: replicas on the least-occupied
	// nodes are removed first, so count residents per node once.
	var nodeLoad []int
	if m.cost {
		m.nodeLoad = slices.Grow(m.nodeLoad[:0], snap.Slots)[:snap.Slots]
		nodeLoad = m.nodeLoad
		clear(nodeLoad)
		for _, svc := range snap.Services {
			for _, r := range svc.Replicas {
				nodeLoad[r.Slot]++
			}
		}
	}
	for i := range snap.Services {
		m.decideService(rd, snap, i, nodeLoad)
	}
	return rd.Plan()
}

// state returns (creating if needed) the memory of service ord.
func (m *Manager) state(ord int) *svcState {
	if ord >= len(m.services) {
		m.services = append(m.services, make([]*svcState, ord+1-len(m.services))...)
	}
	st := m.services[ord]
	if st == nil {
		st = &svcState{}
		for _, sc := range m.cfg.Scalers {
			st.scalers = append(st.scalers, &scalerState{
				cfg:    sc,
				stable: newWindow(sc.StableWindow),
				burst:  newWindow(sc.BurstWindow),
			})
		}
		m.services[ord] = st
	}
	return st
}

// sampleFor computes one scaler's aggregate signal over the service's
// replicas: the sum of per-replica utilization fractions for resource
// scalers, the total resident request count for the queue scaler. ok is
// false when no replica carries the signal (nothing to record).
//
// The memory scaler measures TRANSIENT memory (usage above the service's
// resident baseline) against transient capacity (request above baseline):
// baseline memory is paid per replica and does not redistribute when
// replicas are added, so counting it in summed utilization would ratchet
// every memory-heavy service to MaxReplicas.
func sampleFor(metric string, svc core.ServiceStats) (sum float64, ok bool) {
	baseline := svc.Info.BaselineMemMB
	for _, r := range svc.Replicas {
		switch metric {
		case MetricCPU:
			if r.Requested.CPU > 0 {
				sum += r.Usage.CPU / r.Requested.CPU
				ok = true
			}
		case MetricMemory:
			if cap := r.Requested.MemMB - baseline; cap > 0 {
				if transient := r.Usage.MemMB - baseline; transient > 0 {
					sum += transient / cap
				}
				ok = true
			}
		case MetricNet:
			if r.Requested.NetMbps > 0 {
				sum += r.Usage.NetMbps / r.Requested.NetMbps
				ok = true
			}
		case MetricQueue:
			sum += float64(r.Inflight)
			ok = true
		}
	}
	return sum, ok
}

// targetFor resolves one scaler's effective target for a service: the
// per-service override, then the scaler's own target, then the service's
// TargetUtil (resource scalers) or the manager's QueueTarget (queue).
func (m *Manager) targetFor(sc ScalerConfig, info core.ServiceInfo) float64 {
	ov, hasOv := m.cfg.targetsFor(info.Name)
	if sc.Metric == MetricQueue {
		if hasOv && ov.QueueTarget > 0 {
			return ov.QueueTarget
		}
		if sc.Target > 0 {
			return sc.Target
		}
		return m.cfg.QueueTarget
	}
	if hasOv && ov.TargetUtil > 0 {
		return ov.TargetUtil
	}
	if sc.Target > 0 {
		return sc.Target
	}
	return info.TargetUtil
}

// need converts an aggregated signal into a replica count at the target.
func need(agg, target float64) int {
	if agg <= 0 {
		return 0
	}
	return int(math.Ceil(agg / target))
}

func (m *Manager) decideService(rd *core.Round, snap core.Snapshot, i int, nodeLoad []int) {
	svc := snap.Services[i]
	info := svc.Info
	cur := len(svc.Replicas)

	// Bounds first, unconditionally — no allocator path may leave a
	// service outside [MinReplicas, MaxReplicas].
	if cur < info.MinReplicas {
		rd.AddReplicas(i, info.MinReplicas-cur)
		return
	}
	if cur > info.MaxReplicas {
		m.removeReplicas(rd, i, svc, cur-info.MaxReplicas, nodeLoad)
		return
	}

	st := m.state(info.Ord)

	// Freshness is judged on the gap since the previous round's samples —
	// before this round's are recorded.
	fresh := st.haveSample && snap.Now-st.lastSampleAt <= m.cfg.FreshWithin
	st.lastSampleAt = snap.Now
	st.haveSample = true

	// Record this round's sample into every scaler and collect opinions.
	recs := st.recs[:0]
	ops, stableOps := m.ops[:0], m.stableOps[:0]
	for _, sc := range st.scalers {
		sum, ok := sampleFor(sc.cfg.Metric, svc)
		if ok {
			sc.stable.Record(snap.Now, sum)
			sc.burst.Record(snap.Now, sum)
		}
		target := m.targetFor(sc.cfg, info)
		if target <= 0 {
			continue
		}
		stAvg, okS := sc.stable.Avg(snap.Now)
		bMax, okB := sc.burst.Max(snap.Now)
		if !okS && !okB {
			continue // empty windows: no opinion
		}
		stableNeed, burstNeed := need(stAvg, target), need(bMax, target)
		desired := stableNeed
		if burstNeed > desired {
			desired = burstNeed
		}
		ops = append(ops, Opinion{Metric: sc.cfg.Metric, Desired: desired, Weight: sc.cfg.Weight})
		stableOps = append(stableOps, Opinion{Metric: sc.cfg.Metric, Desired: stableNeed, Weight: sc.cfg.Weight})
		recs = append(recs, Recommendation{
			Service: info.Name, Scaler: sc.cfg.Metric,
			Stable: stableNeed, Burst: burstNeed, Desired: desired, Current: cur,
		})
	}

	m.ops, m.stableOps, st.recs = ops, stableOps, recs
	if len(ops) == 0 {
		// No scaler has an opinion (e.g. a service with zero replicas and
		// MinReplicas 0): hold.
		return
	}

	merged := m.merge(ops)
	want := merged
	if m.cost {
		want = m.costWant(st, info, cur, merged, stableOps, fresh, snap.Now)
	}
	want = clamp(want, info.MinReplicas, info.MaxReplicas)

	for i := range recs {
		recs[i].Merged = merged
	}

	if m.observer != nil && merged != cur {
		m.observer(snap.Now, info.Name, recDetail(info.Name, merged, cur, recs))
	}

	switch {
	case want > cur:
		if !m.gate.CanUp(info.Ord, snap.Now) {
			return
		}
		if rd.AddReplicas(i, want-cur) > 0 {
			m.gate.MarkUp(info.Ord, snap.Now)
		}
	case want < cur:
		if !m.gate.CanDown(info.Ord, snap.Now) {
			return
		}
		m.removeReplicas(rd, i, svc, cur-want, nodeLoad)
		m.gate.MarkDown(info.Ord, snap.Now)
	}
}

// costWant applies the inferno-style decision hierarchy on top of the
// merged recommendation:
//
//  1. Optimizer (metrics fresh): scale up to merged burst-inclusive demand,
//     down only to stable demand — unless the service declares an SLO, in
//     which case burst headroom is kept on the way down too — with
//     retention-period-aware scale-to-zero for MinReplicas==0 services.
//  2. Fallback (metric stream has a gap): hold the last optimizer
//     allocation.
//  3. Last resort (no allocation yet): hold the current replica count.
func (m *Manager) costWant(st *svcState, info core.ServiceInfo, cur, merged int,
	stableOps []Opinion, fresh bool, now time.Duration) int {

	if !fresh {
		if st.haveWant {
			return st.lastWant // fallback allocation
		}
		return cur // last resort
	}

	// Optimizer path. Demand-zero tracking feeds scale-to-zero.
	if merged == 0 {
		if !st.trackingZero {
			st.trackingZero, st.zeroSince = true, now
		}
	} else {
		st.trackingZero = false
	}

	want := cur
	down := m.merge(stableOps)
	if m.cfg.sloFor(info.Name) > 0 {
		down = merged // SLO services keep burst headroom on the way down
	}
	switch {
	case merged > cur:
		want = merged
	case down < cur:
		want = down
	}
	if want == 0 && info.MinReplicas == 0 {
		// Scale-to-zero only after demand has stayed at zero for the
		// retention period; until then hold the last replica warm.
		if !(st.trackingZero && now-st.zeroSince >= m.cfg.Retention) {
			want = 1
		}
	}
	st.lastWant, st.haveWant = want, true
	return want
}

// removeReplicas schedules n removals. The plain manager removes the
// newest replicas (least established, minimal churn); the cost allocator
// removes from the least-occupied nodes first — draining machines down to
// empty stops their machine-hour accrual — breaking ties newest-first.
func (m *Manager) removeReplicas(rd *core.Round, i int, svc core.ServiceStats, n int, nodeLoad []int) {
	if nodeLoad == nil {
		rd.RemoveNewest(i, n)
		return
	}
	if n > len(svc.Replicas) {
		n = len(svc.Replicas)
	}
	order := make([]int, len(svc.Replicas))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		la := nodeLoad[svc.Replicas[order[a]].Slot]
		lb := nodeLoad[svc.Replicas[order[b]].Slot]
		if la != lb {
			return la < lb
		}
		return order[a] > order[b]
	})
	for _, j := range order[:n] {
		rd.ScaleIn(i, j)
		nodeLoad[svc.Replicas[j].Slot]--
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// recDetail renders the per-scaler breakdown for the obs journal, e.g.
// "merged=5 current=3 cpu=5 memory=1 net=2 queue=1".
func recDetail(service string, merged, cur int, recs []Recommendation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "service=%s merged=%d current=%d", service, merged, cur)
	for _, r := range recs {
		fmt.Fprintf(&b, " %s=%d", r.Scaler, r.Desired)
	}
	return b.String()
}
