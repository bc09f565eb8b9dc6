// Package faults is a deterministic, seeded fault-injection layer for the
// control plane. Real autoscalers live with flaky control actions — `docker
// update` calls that error, replica starts that hang, node managers that
// miss a stats query, backends that silently stop accepting connections —
// and the paper's headline claims (≤10× fewer failed requests, ≥99.8 %
// uptime, §VI) are precisely claims about behaviour under such stress.
//
// Every fault decision is a pure function of (seed, fault kind, target,
// instant): the injector hashes those four values instead of consuming a
// shared random stream. This makes the fault schedule independent of how
// often — or in what order — the control plane asks, so a hardened run and
// an unhardened run of the same seed face the *same* faults, and two runs
// of the same configuration are byte-identical.
package faults

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"hyscale/internal/sim"
)

// Kind names a fault site.
type Kind string

// Fault sites.
const (
	// KindVertical fails `docker update` actions.
	KindVertical Kind = "vertical"
	// KindStart fails or slows replica starts (`docker run`).
	KindStart Kind = "start"
	// KindStats drops node-manager stats queries.
	KindStats Kind = "stats"
	// KindBackend marks LB backends unhealthy for an interval.
	KindBackend Kind = "backend"
	// KindMonitorCrash takes the Monitor process itself down for the
	// window: no polls, no decisions, no retries. Only meaningful as a
	// Window (there is no per-attempt probability for a process crash);
	// Target must be empty.
	KindMonitorCrash Kind = "monitor-crash"
	// KindPartition cuts the monitor↔node link for the window's target
	// node. The partition may be asymmetric: Window.Direction selects
	// whether stats queries, control actions, or both are black-holed.
	KindPartition Kind = "partition"
	// KindSlowBackend multiplies the CPU work of requests admitted at the
	// target service during the window by Window.Factor — a degraded
	// dependency (lock convoy, cold cache, noisy neighbour) rather than a
	// dead one. Only meaningful as a Window.
	KindSlowBackend Kind = "slow-backend"
	// KindZoneOutage takes every node in the target zone dead for the
	// window: both stats queries and control actions towards the zone's
	// nodes are black-holed, so the zone's arbiter declares them dead and —
	// when evacuation is enabled — the global allocator re-homes the zone's
	// services. Target is the zone index as a decimal string ("0", "1", …)
	// and must be non-empty; only meaningful as a Window, and only on a
	// zoned (zones ≥ 2) control plane.
	KindZoneOutage Kind = "zone-outage"
	// KindZonePartition cuts the target zone's arbiter off from its nodes
	// for the window — the machines keep running but the control plane
	// cannot see (Direction "stats") or steer (Direction "actions") them;
	// empty Direction cuts both, like KindPartition but for a whole zone.
	// Target is the zone index as a decimal string and must be non-empty.
	KindZonePartition Kind = "zone-partition"
)

// Partition directions for KindPartition windows. An empty Direction cuts
// both ways.
const (
	// DirectionStats blacks out only the node's answers to stats queries
	// (the monitor goes blind but can still act on the node).
	DirectionStats = "stats"
	// DirectionActions blacks out only control actions towards the node
	// (the monitor sees the node but docker update/run/rm never arrive).
	DirectionActions = "actions"
)

// Window forces a fault during [From, To) for a target (or every target
// when Target is empty) — the schedule-driven half of the injector, for
// reproducing a specific outage ("node-3's manager is unreachable from
// minute 4 to minute 6").
type Window struct {
	Kind   Kind
	Target string
	From   time.Duration
	To     time.Duration
	// Direction narrows a KindPartition or KindZonePartition window to one
	// side of the monitor↔node link (DirectionStats or DirectionActions);
	// empty cuts both. Must be empty for every other kind.
	Direction string
	// Factor is the CPU-work multiplier of a KindSlowBackend window
	// (must be > 1); zero for every other kind.
	Factor float64
}

// Contains reports whether the window forces kind on target at now.
func (w Window) Contains(kind Kind, target string, now time.Duration) bool {
	return w.Kind == kind && w.covers(target, now)
}

// Config parameterises an Injector. The zero value injects nothing.
// Probabilities are per-attempt (vertical, start) or per-query (stats);
// backend outages are drawn once per epoch.
type Config struct {
	// Seed decorrelates the fault schedule from the simulation seed.
	Seed int64

	// VerticalFailProb fails a `docker update` attempt.
	VerticalFailProb float64

	// StartFailProb fails a replica start outright; StartSlowProb instead
	// delays readiness by StartSlowBy (image pull stall, slow mount).
	StartFailProb float64
	StartSlowProb float64
	StartSlowBy   time.Duration

	// StatsDropProb drops one node manager's answer to a Monitor stats
	// query (the NM is unreachable that poll).
	StatsDropProb float64

	// BackendDownProb is drawn once per container per BackendDownEvery
	// epoch; on a hit the backend drops every connection for the first
	// BackendDownFor of that epoch.
	BackendDownProb  float64
	BackendDownFor   time.Duration
	BackendDownEvery time.Duration

	// Windows force faults on a schedule, independent of the probabilities.
	Windows []Window
}

// Defaults for zero-valued durations when the matching probability is set.
const (
	defaultStartSlowBy      = 5 * time.Second
	defaultBackendDownFor   = 10 * time.Second
	defaultBackendDownEvery = time.Minute
)

// Enabled reports whether the config can inject any fault at all.
func (c Config) Enabled() bool {
	return c.VerticalFailProb > 0 || c.StartFailProb > 0 || c.StartSlowProb > 0 ||
		c.StatsDropProb > 0 || c.BackendDownProb > 0 || len(c.Windows) > 0
}

// Scaled multiplies every probability by rate (clamped to [0, 1]),
// preserving durations and windows — the chaos experiment's fault-rate
// sweep. Rate 0 returns a config that injects nothing.
func (c Config) Scaled(rate float64) Config {
	s := c
	s.VerticalFailProb = clampProb(c.VerticalFailProb * rate)
	s.StartFailProb = clampProb(c.StartFailProb * rate)
	s.StartSlowProb = clampProb(c.StartSlowProb * rate)
	s.StatsDropProb = clampProb(c.StatsDropProb * rate)
	s.BackendDownProb = clampProb(c.BackendDownProb * rate)
	if rate <= 0 {
		s.Windows = nil
	}
	return s
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Validate checks probabilities and windows.
func (c Config) Validate() error {
	for name, p := range map[string]float64{
		"verticalFailProb": c.VerticalFailProb,
		"startFailProb":    c.StartFailProb,
		"startSlowProb":    c.StartSlowProb,
		"statsDropProb":    c.StatsDropProb,
		"backendDownProb":  c.BackendDownProb,
	} {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: %s = %v out of [0,1]", name, p)
		}
	}
	for i, w := range c.Windows {
		switch w.Kind {
		case KindVertical, KindStart, KindStats, KindBackend, KindMonitorCrash, KindPartition, KindSlowBackend, KindZoneOutage, KindZonePartition:
		default:
			return fmt.Errorf("faults: window %d has unknown kind %q", i, w.Kind)
		}
		if w.To <= w.From {
			return fmt.Errorf("faults: window %d has non-positive span [%v, %v)", i, w.From, w.To)
		}
		if w.Kind == KindMonitorCrash && w.Target != "" {
			return fmt.Errorf("faults: window %d: monitor-crash windows take no target (got %q)", i, w.Target)
		}
		if (w.Kind == KindZoneOutage || w.Kind == KindZonePartition) && w.Target == "" {
			return fmt.Errorf("faults: window %d: %s windows need a zone-index target", i, w.Kind)
		}
		if w.Kind == KindPartition || w.Kind == KindZonePartition {
			switch w.Direction {
			case "", DirectionStats, DirectionActions:
			default:
				return fmt.Errorf("faults: window %d has unknown partition direction %q", i, w.Direction)
			}
		} else if w.Direction != "" {
			return fmt.Errorf("faults: window %d: direction %q only applies to partition windows", i, w.Direction)
		}
		if w.Kind == KindSlowBackend {
			if w.Factor <= 1 {
				return fmt.Errorf("faults: window %d: slow-backend windows need factor > 1 (got %v)", i, w.Factor)
			}
		} else if w.Factor != 0 {
			return fmt.Errorf("faults: window %d: factor %v only applies to slow-backend windows", i, w.Factor)
		}
	}
	return nil
}

// Injector answers fault queries. A nil *Injector injects nothing, so
// callers can wire it unconditionally.
type Injector struct {
	cfg Config
	// kinds groups a copy of cfg.Windows by kind, configuration order kept
	// within each group. The admission and probe paths ask about one kind
	// per request, so a kind with no window costs a scan of these few
	// groups instead of a copy and compare of every window.
	kinds []kindWindows
}

// kindWindows is the run of an injector's windows that share one kind.
type kindWindows struct {
	kind    Kind
	windows []Window
}

// New builds an injector. Returns nil when the config injects nothing, so
// `faults.New(cfg)` composes directly with the nil-safe query methods.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	i := &Injector{cfg: cfg}
	sorted := slices.Clone(cfg.Windows)
	slices.SortStableFunc(sorted, func(a, b Window) int { return strings.Compare(string(a.Kind), string(b.Kind)) })
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi].Kind == sorted[lo].Kind {
			hi++
		}
		i.kinds = append(i.kinds, kindWindows{sorted[lo].Kind, sorted[lo:hi:hi]})
		lo = hi
	}
	return i
}

// of returns the windows of one kind, in configuration order.
func (i *Injector) of(kind Kind) []Window {
	for k := range i.kinds {
		if i.kinds[k].kind == kind {
			return i.kinds[k].windows
		}
	}
	return nil
}

// covers reports whether the window applies to target at now, whatever
// its kind.
func (w *Window) covers(target string, now time.Duration) bool {
	return (w.Target == "" || w.Target == target) && now >= w.From && now < w.To
}

// Config returns the injector's configuration (zero for a nil injector).
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// Enabled reports whether any fault can fire.
func (i *Injector) Enabled() bool { return i != nil && i.cfg.Enabled() }

// roll returns a deterministic uniform draw in [0, 1) for (kind, target, n).
func (i *Injector) roll(kind Kind, target string, n uint64) float64 {
	return sim.RollFrom(sim.RollMix(sim.RollPrefix(i.cfg.Seed, string(kind)), target), n)
}

func (i *Injector) windowed(kind Kind, target string, now time.Duration) bool {
	ws := i.of(kind)
	for k := range ws {
		if ws[k].covers(target, now) {
			return true
		}
	}
	return false
}

// partitioned reports whether a KindPartition window cuts the given side of
// the monitor↔node link at now. A window with empty Direction cuts both.
func (i *Injector) partitioned(direction, nodeID string, now time.Duration) bool {
	if i == nil {
		return false
	}
	ws := i.of(KindPartition)
	for k := range ws {
		if ws[k].covers(nodeID, now) && (ws[k].Direction == "" || ws[k].Direction == direction) {
			return true
		}
	}
	return false
}

// MonitorCrashed reports whether the Monitor process is down at now — the
// platform skips polls (and checkpointing) for the duration, then restarts
// the monitor at the first poll after the window.
func (i *Injector) MonitorCrashed(now time.Duration) bool {
	if i == nil {
		return false
	}
	return i.windowed(KindMonitorCrash, "", now)
}

// StatsBlackout reports whether a partition window is black-holing nodeID's
// stats answers at now. Unlike StatsDropped's per-query probability, this is
// a sustained outage, so the monitor's failure detector sees consecutive
// misses.
func (i *Injector) StatsBlackout(now time.Duration, nodeID string) bool {
	return i.partitioned(DirectionStats, nodeID, now)
}

// ActionBlackout reports whether a partition window is black-holing control
// actions towards nodeID at now (docker update/run/rm never arrive; the
// monitor requeues them).
func (i *Injector) ActionBlackout(now time.Duration, nodeID string) bool {
	return i.partitioned(DirectionActions, nodeID, now)
}

// HasZoneWindows reports whether any zone-outage or zone-partition window is
// configured — a cheap gate so a zoned control plane skips its per-node zone
// lookup when no zone can ever fail.
func (i *Injector) HasZoneWindows() bool {
	if i == nil {
		return false
	}
	return len(i.of(KindZoneOutage)) > 0 || len(i.of(KindZonePartition)) > 0
}

// zoneCut reports whether a zone-scoped window is black-holing the given
// side of the monitor↔node link for zone at now. A zone-outage window cuts
// both sides; a zone-partition window respects its Direction.
func (i *Injector) zoneCut(direction, zone string, now time.Duration) bool {
	if i == nil {
		return false
	}
	if i.windowed(KindZoneOutage, zone, now) {
		return true
	}
	ws := i.of(KindZonePartition)
	for k := range ws {
		if ws[k].covers(zone, now) && (ws[k].Direction == "" || ws[k].Direction == direction) {
			return true
		}
	}
	return false
}

// ZoneStatsCut reports whether the zone's stats answers are black-holed at
// now (zone-outage, or zone-partition with stats direction).
func (i *Injector) ZoneStatsCut(now time.Duration, zone string) bool {
	return i.zoneCut(DirectionStats, zone, now)
}

// ZoneActionsCut reports whether control actions towards the zone's nodes
// are black-holed at now (zone-outage, or zone-partition with actions
// direction).
func (i *Injector) ZoneActionsCut(now time.Duration, zone string) bool {
	return i.zoneCut(DirectionActions, zone, now)
}

// VerticalFails reports whether the `docker update` on containerID at now
// fails. Retrying at a later instant re-rolls, so transient faults clear.
func (i *Injector) VerticalFails(now time.Duration, containerID string) bool {
	if i == nil {
		return false
	}
	if i.windowed(KindVertical, containerID, now) {
		return true
	}
	return i.cfg.VerticalFailProb > 0 &&
		i.roll(KindVertical, containerID, uint64(now)) < i.cfg.VerticalFailProb
}

// StartFault reports the fate of a replica start at now: fail outright,
// or be slowed by the returned extra delay before readiness. key should
// identify the attempt stably (service name plus replica index).
func (i *Injector) StartFault(now time.Duration, key string) (fail bool, slowBy time.Duration) {
	if i == nil {
		return false, 0
	}
	if i.windowed(KindStart, key, now) {
		return true, 0
	}
	r := i.roll(KindStart, key, uint64(now))
	if r < i.cfg.StartFailProb {
		return true, 0
	}
	if r < i.cfg.StartFailProb+i.cfg.StartSlowProb {
		d := i.cfg.StartSlowBy
		if d <= 0 {
			d = defaultStartSlowBy
		}
		return false, d
	}
	return false, 0
}

// StatsDropped reports whether nodeID's answer to the stats query at now is
// lost.
func (i *Injector) StatsDropped(now time.Duration, nodeID string) bool {
	if i == nil {
		return false
	}
	if i.windowed(KindStats, nodeID, now) {
		return true
	}
	return i.cfg.StatsDropProb > 0 &&
		i.roll(KindStats, nodeID, uint64(now)) < i.cfg.StatsDropProb
}

// BackendDown reports whether containerID (a replica of service) is
// black-holing connections at now. Windows may target either the container
// ID or the whole service by name; the probabilistic epoch draw stays
// per-container. Outages are epoch-aligned: each BackendDownEvery the
// container is re-drawn, and on a hit it is down for the first
// BackendDownFor of the epoch — the same schedule regardless of who asks or
// how often.
func (i *Injector) BackendDown(now time.Duration, service, containerID string) bool {
	if i == nil {
		return false
	}
	if i.windowed(KindBackend, containerID, now) || (service != containerID && i.windowed(KindBackend, service, now)) {
		return true
	}
	if i.cfg.BackendDownProb <= 0 {
		return false
	}
	every := i.cfg.BackendDownEvery
	if every <= 0 {
		every = defaultBackendDownEvery
	}
	downFor := i.cfg.BackendDownFor
	if downFor <= 0 {
		downFor = defaultBackendDownFor
	}
	if downFor > every {
		downFor = every
	}
	epoch := uint64(now / every)
	if i.roll(KindBackend, containerID, epoch) >= i.cfg.BackendDownProb {
		return false
	}
	return now-time.Duration(epoch)*every < downFor
}

// SlowFactor returns the CPU-work multiplier a slow-backend window imposes
// on service at now (the largest when several overlap), or 1 when none does.
func (i *Injector) SlowFactor(now time.Duration, service string) float64 {
	if i == nil {
		return 1
	}
	factor := 1.0
	ws := i.of(KindSlowBackend)
	for k := range ws {
		if ws[k].covers(service, now) && ws[k].Factor > factor {
			factor = ws[k].Factor
		}
	}
	return factor
}
