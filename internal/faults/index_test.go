package faults

import (
	"math/rand"
	"testing"
	"time"
)

// Reference answers computed the direct way: a scan of every configured
// window through Window.Contains, as the injector answered before it grouped
// its windows by kind.

func refWindowed(cfg Config, kind Kind, target string, now time.Duration) bool {
	for _, w := range cfg.Windows {
		if w.Contains(kind, target, now) {
			return true
		}
	}
	return false
}

func refCut(cfg Config, kind Kind, direction, target string, now time.Duration) bool {
	for _, w := range cfg.Windows {
		if w.Contains(kind, target, now) && (w.Direction == "" || w.Direction == direction) {
			return true
		}
	}
	return false
}

func refSlowFactor(cfg Config, service string, now time.Duration) float64 {
	factor := 1.0
	for _, w := range cfg.Windows {
		if w.Contains(KindSlowBackend, service, now) && w.Factor > factor {
			factor = w.Factor
		}
	}
	return factor
}

// TestKindIndexMatchesLinearScan generates random window sets of every kind
// — untargeted, service-, container-, node- and zone-targeted, with
// overlapping slow factors — and checks every window query against the
// reference scan at random instants and at each window's exact From and To.
func TestKindIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kinds := []Kind{KindVertical, KindStart, KindStats, KindBackend, KindMonitorCrash,
		KindPartition, KindSlowBackend, KindZoneOutage, KindZonePartition}
	// Services "a" and "b", their containers, nodes and zone indices.
	targets := []string{"a", "b", "a-0", "a-1", "b-0", "node-0", "node-1", "0", "1"}
	directions := []string{"", DirectionStats, DirectionActions}
	for trial := 0; trial < 300; trial++ {
		var cfg Config
		for n := rng.Intn(8); len(cfg.Windows) < n; {
			w := Window{Kind: kinds[rng.Intn(len(kinds))]}
			w.From = time.Duration(rng.Intn(20)) * time.Second
			w.To = w.From + time.Duration(1+rng.Intn(10))*time.Second
			if w.Kind != KindMonitorCrash && (rng.Intn(3) > 0 || w.Kind == KindZoneOutage || w.Kind == KindZonePartition) {
				w.Target = targets[rng.Intn(len(targets))]
			}
			if w.Kind == KindPartition || w.Kind == KindZonePartition {
				w.Direction = directions[rng.Intn(len(directions))]
			}
			if w.Kind == KindSlowBackend {
				w.Factor = float64(2 + rng.Intn(3))
			}
			cfg.Windows = append(cfg.Windows, w)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generated an invalid config: %v", trial, err)
		}
		inj := New(cfg)
		if got, want := inj.HasZoneWindows(), refWindowedKinds(cfg, KindZoneOutage, KindZonePartition); got != want {
			t.Fatalf("trial %d: HasZoneWindows = %v, want %v", trial, got, want)
		}
		var instants []time.Duration
		for _, w := range cfg.Windows {
			instants = append(instants, w.From-1, w.From, w.To-1, w.To)
		}
		for k := 0; k < 10; k++ {
			instants = append(instants, time.Duration(rng.Int63n(int64(32*time.Second))))
		}
		for _, now := range instants {
			if got, want := inj.MonitorCrashed(now), refWindowed(cfg, KindMonitorCrash, "", now); got != want {
				t.Fatalf("trial %d at %v: MonitorCrashed = %v, want %v\n%+v", trial, now, got, want, cfg.Windows)
			}
			for _, target := range targets {
				checks := []struct {
					name      string
					got, want bool
				}{
					{"VerticalFails", inj.VerticalFails(now, target), refWindowed(cfg, KindVertical, target, now)},
					{"StatsDropped", inj.StatsDropped(now, target), refWindowed(cfg, KindStats, target, now)},
					{"StatsBlackout", inj.StatsBlackout(now, target), refCut(cfg, KindPartition, DirectionStats, target, now)},
					{"ActionBlackout", inj.ActionBlackout(now, target), refCut(cfg, KindPartition, DirectionActions, target, now)},
					{"ZoneStatsCut", inj.ZoneStatsCut(now, target),
						refWindowed(cfg, KindZoneOutage, target, now) || refCut(cfg, KindZonePartition, DirectionStats, target, now)},
					{"ZoneActionsCut", inj.ZoneActionsCut(now, target),
						refWindowed(cfg, KindZoneOutage, target, now) || refCut(cfg, KindZonePartition, DirectionActions, target, now)},
				}
				for _, c := range checks {
					if c.got != c.want {
						t.Fatalf("trial %d at %v: %s(%q) = %v, want %v\n%+v", trial, now, c.name, target, c.got, c.want, cfg.Windows)
					}
				}
				if fail, slow := inj.StartFault(now, target); fail != refWindowed(cfg, KindStart, target, now) || slow != 0 {
					t.Fatalf("trial %d at %v: StartFault(%q) = %v, %v\n%+v", trial, now, target, fail, slow, cfg.Windows)
				}
				if got, want := inj.SlowFactor(now, target), refSlowFactor(cfg, target, now); got != want {
					t.Fatalf("trial %d at %v: SlowFactor(%q) = %v, want %v\n%+v", trial, now, target, got, want, cfg.Windows)
				}
			}
			for _, svc := range []string{"a", "b"} {
				for _, id := range []string{svc + "-0", svc + "-1", svc} {
					want := refWindowed(cfg, KindBackend, id, now) || (svc != id && refWindowed(cfg, KindBackend, svc, now))
					if got := inj.BackendDown(now, svc, id); got != want {
						t.Fatalf("trial %d at %v: BackendDown(%q, %q) = %v, want %v\n%+v", trial, now, svc, id, got, want, cfg.Windows)
					}
				}
			}
		}
	}
}

// refWindowedKinds reports whether any window has one of the kinds.
func refWindowedKinds(cfg Config, kinds ...Kind) bool {
	for _, w := range cfg.Windows {
		for _, k := range kinds {
			if w.Kind == k {
				return true
			}
		}
	}
	return false
}
