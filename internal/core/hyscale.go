package core

import (
	"fmt"

	"hyscale/internal/resources"
)

// HyScale implements the paper's hybrid autoscaling algorithms (§IV-B).
//
// Per decision round it: (1) enforces the min/max replica bounds for fault
// tolerance, (2) computes each service's missing resources
//
//	Missing_m = (Σ usage_r − Σ requested_r · Target) / Target
//
// (3) runs the reclamation phase — vertically scaling down over-provisioned
// replicas to usage/(Target·0.9) and removing replicas whose allocation
// falls below the minimum thresholds — and (4) runs the acquisition phase —
// vertically scaling starved replicas up by
//
//	Acquired_r = min( usage_r/(Target·0.9) − requested_r , Available_node )
//
// falling back to horizontal scale-out onto nodes that do not already host
// the service and advertise at least the service's baseline memory and the
// minimum CPU (0.25). Horizontal actions respect the rescale intervals;
// vertical actions are exempt (§IV-B1).
//
// With memAware=false this is HYSCALE_CPU; with memAware=true it is
// HYSCALE_CPU+Mem, which applies the same equations to memory and requires
// the CPU and memory removal/addition thresholds to be met mutually.
type HyScale struct {
	cfg      Config
	memAware bool
	gate     *Gate
	name     string
	opts     HyScaleOptions

	// rd and deficits are Decide's scratch, reused every round.
	rd       Round
	deficits []missing
}

var _ Algorithm = (*HyScale)(nil)

// NewHyScaleCPU builds HYSCALE_CPU (§IV-B1).
func NewHyScaleCPU(cfg Config) *HyScale {
	return &HyScale{
		cfg:  cfg,
		gate: NewGate(cfg.ScaleUpInterval, cfg.ScaleDownInterval),
		name: "hybrid",
	}
}

// NewHyScaleCPUMem builds HYSCALE_CPU+Mem (§IV-B2).
func NewHyScaleCPUMem(cfg Config) *HyScale {
	return &HyScale{
		cfg:      cfg,
		memAware: true,
		gate:     NewGate(cfg.ScaleUpInterval, cfg.ScaleDownInterval),
		name:     "hybridmem",
	}
}

// Name implements Algorithm.
func (h *HyScale) Name() string { return h.name }

// missing tracks a service's outstanding resource deficit (positive) or
// surplus (negative) during one decision round.
type missing struct {
	cpu float64
	mem float64
}

// Decide implements Algorithm.
func (h *HyScale) Decide(snap Snapshot) Plan {
	rd := &h.rd
	rd.Reset(snap, h.cfg.Placement)
	deficits := resize(h.deficits, len(snap.Services))
	h.deficits = deficits
	for i, svc := range snap.Services {
		deficits[i] = h.deficitOf(svc)
	}

	// Phase 0: fault-tolerance bounds.
	for i := range snap.Services {
		h.enforceBounds(rd, i)
	}

	// Phase 1: reclamation frees resources on every node before anyone
	// tries to acquire them.
	for i := range snap.Services {
		h.reclaim(rd, i, &deficits[i])
	}

	// Phase 2: acquisition — vertical first, horizontal as a fallback.
	for i := range snap.Services {
		h.acquire(rd, i, &deficits[i])
	}
	return rd.Plan()
}

// deficitOf computes Missing_m for CPU (and memory when memory-aware).
func (h *HyScale) deficitOf(svc ServiceStats) missing {
	t := svc.Info.TargetUtil
	if t <= 0 {
		return missing{}
	}
	var usageCPU, reqCPU, usageMem, reqMem float64
	for _, r := range svc.Replicas {
		usageCPU += r.Usage.CPU
		reqCPU += r.Requested.CPU
		usageMem += r.Usage.MemMB
		reqMem += r.Requested.MemMB
	}
	d := missing{cpu: (usageCPU - reqCPU*t) / t}
	if h.memAware {
		d.mem = (usageMem - reqMem*t) / t
	}
	return d
}

// enforceBounds starts replicas below MinReplicas and removes replicas above
// MaxReplicas, bypassing the rescale gates (availability first).
func (h *HyScale) enforceBounds(rd *Round, i int) {
	svc := rd.snap.Services[i]
	info := svc.Info
	for rd.Count(i) < info.MinReplicas {
		node := h.scaleOutNode(rd, i)
		if node < 0 {
			return
		}
		rd.ScaleOut(i, node, info.InitialAlloc)
	}
	for j := len(svc.Replicas) - 1; j >= 0 && rd.Count(i) > info.MaxReplicas; j-- {
		if rd.Removed(i, j) {
			continue
		}
		h.scaleIn(rd, i, j)
	}
}

// reclaim performs downward vertical scaling on over-provisioned services
// and removes replicas that shrink below the minimum thresholds.
func (h *HyScale) reclaim(rd *Round, i int, def *missing) {
	svc := rd.snap.Services[i]
	info := svc.Info
	t := info.TargetUtil
	if t <= 0 {
		return
	}
	if h.opts.DisableReclamation {
		return
	}
	reclaimCPU := def.cpu < 0
	reclaimMem := h.memAware && def.mem < 0
	if !reclaimCPU && !reclaimMem {
		return
	}
	// The horizontal-only ablation may still remove idle replicas but must
	// not resize them.
	resizeAllowed := !h.opts.DisableVertical

	for j, r := range svc.Replicas {
		if rd.Removed(i, j) || !r.Routable {
			continue
		}
		cur := rd.Allocation(i, j)
		newAlloc := cur

		// Desired requests at 90 % of target so the replica keeps headroom.
		wantCPU := r.Usage.CPU / (t * 0.9)
		wantMem := r.Usage.MemMB / (t * 0.9)

		cpuIdle := wantCPU < h.cfg.MinReplicaCPU
		// Memory-idle looks at the transient footprint above the
		// application baseline: the baseline itself is resident in every
		// replica and says nothing about load.
		activeMem := maxf(r.Usage.MemMB-info.BaselineMemMB, 0)
		memIdle := activeMem/(t*0.9) < info.BaselineMemMB*h.cfg.MemHeadroom

		// Removal: the CPU threshold alone decides for HYSCALE_CPU; the
		// CPU and memory conditions must hold mutually for HYSCALE_CPU+Mem
		// (§IV-B2).
		// Replica removal is a horizontal action and honours the rescale
		// interval like every other horizontal action (§IV-B1's thrash
		// throttle); vertical reclamation below stays exempt.
		removable := cpuIdle && (!h.memAware || memIdle)
		if removable && rd.Count(i) > info.MinReplicas && def.cpu < 0 &&
			h.gate.CanDown(info.Ord, rd.snap.Now) {
			h.scaleIn(rd, i, j)
			h.gate.MarkDown(info.Ord, rd.snap.Now)
			def.cpu += cur.CPU
			if h.memAware {
				def.mem += cur.MemMB
			}
			continue
		}

		if !resizeAllowed {
			continue
		}
		changed := false
		if reclaimCPU && wantCPU < cur.CPU {
			// ReclaimableCPUs_r = requested_r − usage_r/(Target·0.9).
			reclaimable := cur.CPU - wantCPU
			newAlloc.CPU = cur.CPU - reclaimable
			def.cpu += reclaimable
			changed = true
		}
		if reclaimMem {
			// Never reclaim below the application baseline: the replica
			// would immediately swap.
			floor := info.BaselineMemMB * (1 + h.cfg.MemHeadroom)
			wantMemClamped := maxf(wantMem, floor)
			if wantMemClamped < cur.MemMB {
				reclaimable := cur.MemMB - wantMemClamped
				newAlloc.MemMB = cur.MemMB - reclaimable
				def.mem += reclaimable
				changed = true
			}
		}
		if changed {
			rd.Credit(r.Slot, cur.Sub(newAlloc).ClampNonNegative())
			rd.Resize(i, j, newAlloc)
		}
	}
}

// acquire vertically scales starved replicas up using node headroom and
// falls back to horizontal scale-out for whatever deficit remains.
func (h *HyScale) acquire(rd *Round, i int, def *missing) {
	svc := rd.snap.Services[i]
	info := svc.Info
	t := info.TargetUtil
	if t <= 0 {
		return
	}
	const eps = 0.01
	needCPU := def.cpu > eps
	needMem := h.memAware && def.mem > eps
	if !needCPU && !needMem {
		return
	}

	for j, r := range svc.Replicas {
		if h.opts.DisableVertical {
			break
		}
		if rd.Removed(i, j) || !r.Routable {
			continue
		}
		a := rd.Available(r.Slot)
		cur := rd.Allocation(i, j)
		newAlloc := cur
		var took resources.Vector

		if needCPU {
			// AcquiredCPUs_r = min(RequiredCPUs_r, AvailableCPUs_n).
			required := r.Usage.CPU/(t*0.9) - cur.CPU
			if required > 0 {
				acquired := minf(required, a.CPU)
				if acquired > 0 {
					newAlloc.CPU += acquired
					took.CPU = acquired
					def.cpu -= acquired
				}
			}
		}
		if needMem {
			required := r.Usage.MemMB/(t*0.9) - cur.MemMB
			if required > 0 {
				acquired := minf(required, a.MemMB)
				if acquired > 0 {
					newAlloc.MemMB += acquired
					took.MemMB = acquired
					def.mem -= acquired
				}
			}
		}
		if !took.IsZero() {
			rd.Debit(r.Slot, took)
			rd.Resize(i, j, newAlloc)
		}
	}

	// Horizontal fallback for the remaining deficit, throttled by the
	// scale-up interval.
	if h.opts.DisableHorizontal {
		return
	}
	if def.cpu <= eps && (!h.memAware || def.mem <= eps) {
		return
	}
	if !h.gate.CanUp(info.Ord, rd.snap.Now) {
		return
	}
	placedAny := false
	for (def.cpu > eps || (h.memAware && def.mem > eps)) && rd.Count(i) < info.MaxReplicas {
		node := h.scaleOutNode(rd, i)
		if node < 0 {
			break
		}
		a := rd.Available(node)
		allocCPU := maxf(def.cpu, h.cfg.MinScaleOutCPU)
		allocCPU = minf(allocCPU, a.CPU)
		allocMem := info.InitialAlloc.MemMB
		if h.memAware {
			allocMem = maxf(allocMem, info.BaselineMemMB*(1+h.cfg.MemHeadroom)+maxf(def.mem, 0))
		}
		allocMem = minf(allocMem, a.MemMB)
		alloc := resources.Vector{CPU: allocCPU, MemMB: allocMem, NetMbps: info.InitialAlloc.NetMbps}
		rd.ScaleOut(i, node, alloc)
		def.cpu -= allocCPU
		if h.memAware {
			def.mem -= allocMem - info.BaselineMemMB
		}
		placedAny = true
	}
	if placedAny {
		h.gate.MarkUp(info.Ord, rd.snap.Now)
	}
}

// scaleOutNode selects the node with the most available CPU that (a) does
// not already host the service and (b) advertises at least the service's
// baseline memory and the minimum scale-out CPU (§IV-B1). It returns the
// node's index in the snapshot, or -1. i is the service's snapshot index.
func (h *HyScale) scaleOutNode(rd *Round, i int) int {
	info := rd.snap.Services[i].Info
	need := resources.Vector{CPU: h.cfg.MinScaleOutCPU, MemMB: maxf(info.BaselineMemMB, info.InitialAlloc.MemMB)}
	return rd.Pick(need, i)
}

// scaleIn removes replica j of snap.Services[svc] and, unlike Kubernetes
// and the manager, credits its allocation back so services planned later in
// the round can use it.
func (h *HyScale) scaleIn(rd *Round, svc, j int) {
	r := rd.snap.Services[svc].Replicas[j]
	rd.ScaleIn(svc, j)
	rd.Credit(r.Slot, r.Requested)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// String implements fmt.Stringer for debugging.
func (h *HyScale) String() string {
	return fmt.Sprintf("HyScale(memAware=%v)", h.memAware)
}
