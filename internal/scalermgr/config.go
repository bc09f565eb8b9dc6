package scalermgr

import (
	"fmt"
	"time"
)

// Metric names understood by the built-in scalers.
const (
	MetricCPU    = "cpu"
	MetricMemory = "memory"
	MetricNet    = "net"
	MetricQueue  = "queue"
)

// ScalerConfig configures one scaler inside the manager.
type ScalerConfig struct {
	// Metric selects the signal: cpu | memory | net | queue.
	Metric string `json:"metric"`
	// Weight is the scaler's vote weight under the "weighted" merge policy
	// (ignored by "max"). Zero means 1.
	Weight float64 `json:"weight,omitempty"`
	// Target overrides the scaler's utilization target. For resource scalers
	// it is a fraction of the replica's request (0.5 == 50 %); zero falls
	// back to the service's TargetUtil. For the queue scaler it is the
	// per-replica queue depth; zero falls back to Config.QueueTarget.
	Target float64 `json:"target,omitempty"`
	// StableWindow / BurstWindow override the manager-wide window widths for
	// this scaler only. Zero inherits.
	StableWindow time.Duration `json:"stableWindow,omitempty"`
	BurstWindow  time.Duration `json:"burstWindow,omitempty"`
}

// ServiceTargets carries one service's SLO/cost objectives.
type ServiceTargets struct {
	// Service names the microservice the targets apply to.
	Service string `json:"service"`
	// SLOMs is the service's response-time objective in milliseconds. Under
	// the cost-optimal allocator a service with an SLO keeps burst-window
	// headroom on the way down (scale-down honours burst demand); services
	// without one shed headroom down to stable demand.
	SLOMs float64 `json:"sloMs,omitempty"`
	// TargetUtil overrides the utilization target for this service's
	// resource scalers.
	TargetUtil float64 `json:"targetUtil,omitempty"`
	// QueueTarget overrides the per-replica queue-depth target.
	QueueTarget float64 `json:"queueTarget,omitempty"`
}

// Config is the manager's tuning surface. The zero value is usable: New
// fills every unset field from the defaults below.
type Config struct {
	// StableWindow is the averaging window the stable aggregators use
	// (default 60 s). The stable signal drives scale-down.
	StableWindow time.Duration `json:"stableWindow,omitempty"`
	// BurstWindow is the max-tracking window the burst aggregators use
	// (default 15 s). The burst signal drives scale-up responsiveness.
	BurstWindow time.Duration `json:"burstWindow,omitempty"`
	// MergePolicy names the recommendation merge: "max" (default) or
	// "weighted".
	MergePolicy string `json:"mergePolicy,omitempty"`
	// Scalers lists the per-service scalers. Empty means all four built-ins
	// (cpu, memory, net, queue) at weight 1.
	Scalers []ScalerConfig `json:"scalers,omitempty"`
	// QueueTarget is the default per-replica queue depth the queue scaler
	// aims for (default 4).
	QueueTarget float64 `json:"queueTarget,omitempty"`
	// FreshWithin bounds the gap between successive decision rounds for the
	// metric stream to count as fresh (default 15 s — three monitor
	// periods). A larger gap drops the cost allocator to its fallback path.
	FreshWithin time.Duration `json:"freshWithin,omitempty"`
	// Retention is how long demand must stay at zero before the cost
	// allocator scales a MinReplicas==0 service to zero (default 5 m).
	// Until it expires the service is held at one replica.
	Retention time.Duration `json:"retention,omitempty"`
	// SLOTargetMs is a default response-time objective applied to every
	// service without an explicit ServiceTargets entry (0 = none).
	SLOTargetMs float64 `json:"sloTargetMs,omitempty"`
	// Services holds per-service SLO/cost overrides.
	Services []ServiceTargets `json:"services,omitempty"`
}

// Default values used by Config.withDefaults.
const (
	DefaultStableWindow = 60 * time.Second
	DefaultBurstWindow  = 15 * time.Second
	DefaultFreshWithin  = 15 * time.Second
	DefaultRetention    = 5 * time.Minute
	DefaultQueueTarget  = 4.0
	DefaultMergePolicy  = "max"
)

// DefaultScalers returns the four built-in scalers at weight 1.
func DefaultScalers() []ScalerConfig {
	return []ScalerConfig{
		{Metric: MetricCPU},
		{Metric: MetricMemory},
		{Metric: MetricNet},
		{Metric: MetricQueue},
	}
}

// DefaultConfig returns the fully-populated default configuration.
func DefaultConfig() Config {
	return Config{}.withDefaults()
}

// withDefaults returns a copy with every unset field filled in.
func (c Config) withDefaults() Config {
	if c.StableWindow <= 0 {
		c.StableWindow = DefaultStableWindow
	}
	if c.BurstWindow <= 0 {
		c.BurstWindow = DefaultBurstWindow
	}
	if c.MergePolicy == "" {
		c.MergePolicy = DefaultMergePolicy
	}
	if len(c.Scalers) == 0 {
		c.Scalers = DefaultScalers()
	} else {
		c.Scalers = append([]ScalerConfig(nil), c.Scalers...)
	}
	for i := range c.Scalers {
		if c.Scalers[i].Weight <= 0 {
			c.Scalers[i].Weight = 1
		}
		if c.Scalers[i].StableWindow <= 0 {
			c.Scalers[i].StableWindow = c.StableWindow
		}
		if c.Scalers[i].BurstWindow <= 0 {
			c.Scalers[i].BurstWindow = c.BurstWindow
		}
	}
	if c.QueueTarget <= 0 {
		c.QueueTarget = DefaultQueueTarget
	}
	if c.FreshWithin <= 0 {
		c.FreshWithin = DefaultFreshWithin
	}
	if c.Retention <= 0 {
		c.Retention = DefaultRetention
	}
	return c
}

// Validate rejects configurations New would silently misinterpret.
func (c Config) Validate() error {
	for i, s := range c.Scalers {
		switch s.Metric {
		case MetricCPU, MetricMemory, MetricNet, MetricQueue:
		default:
			return fmt.Errorf("scalermgr: scaler %d: unknown metric %q", i, s.Metric)
		}
		if s.Weight < 0 {
			return fmt.Errorf("scalermgr: scaler %d (%s): negative weight %g", i, s.Metric, s.Weight)
		}
		if s.Target < 0 {
			return fmt.Errorf("scalermgr: scaler %d (%s): negative target %g", i, s.Metric, s.Target)
		}
		if s.StableWindow < 0 || s.BurstWindow < 0 {
			return fmt.Errorf("scalermgr: scaler %d (%s): negative window", i, s.Metric)
		}
	}
	if c.MergePolicy != "" {
		if _, ok := mergePolicy(c.MergePolicy); !ok {
			return fmt.Errorf("scalermgr: unknown merge policy %q", c.MergePolicy)
		}
	}
	if c.StableWindow < 0 || c.BurstWindow < 0 || c.FreshWithin < 0 || c.Retention < 0 {
		return fmt.Errorf("scalermgr: negative duration in config")
	}
	if c.QueueTarget < 0 {
		return fmt.Errorf("scalermgr: negative queue target %g", c.QueueTarget)
	}
	if c.SLOTargetMs < 0 {
		return fmt.Errorf("scalermgr: negative SLO target %g ms", c.SLOTargetMs)
	}
	seen := make(map[string]bool, len(c.Services))
	for _, t := range c.Services {
		if t.Service == "" {
			return fmt.Errorf("scalermgr: service targets entry without a service name")
		}
		if seen[t.Service] {
			return fmt.Errorf("scalermgr: duplicate service targets for %q", t.Service)
		}
		seen[t.Service] = true
		if t.SLOMs < 0 || t.TargetUtil < 0 || t.QueueTarget < 0 {
			return fmt.Errorf("scalermgr: negative target for service %q", t.Service)
		}
	}
	return nil
}

// targetsFor returns the service's override entry, if any.
func (c Config) targetsFor(service string) (ServiceTargets, bool) {
	for _, t := range c.Services {
		if t.Service == service {
			return t, true
		}
	}
	return ServiceTargets{}, false
}

// sloFor returns the effective response-time objective for the service
// (0 = none declared).
func (c Config) sloFor(service string) float64 {
	if t, ok := c.targetsFor(service); ok && t.SLOMs > 0 {
		return t.SLOMs
	}
	return c.SLOTargetMs
}
