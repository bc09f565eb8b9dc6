package monitor

// Test-only access to the control plane. The by-name Monitor methods below
// address an arbiter's services the way the tests name them, through the
// plane's name index. The scans further down are the reference the plane's
// table and the arbiters' ordinal resolution are checked against: they read
// only the arbiters' service lists, never the table.

import (
	"fmt"
	"time"

	"hyscale/internal/cluster"
	"hyscale/internal/container"
	"hyscale/internal/core"
	"hyscale/internal/resources"
	"hyscale/internal/workload"
)

// soloMonitor builds a one-zone plane over cl, with the 1 s start delay the
// monitor tests assume, and returns its one arbiter.
func soloMonitor(cl *cluster.Cluster, algo core.Algorithm) *Monitor {
	p, err := NewPlane(cl, algo, PlaneConfig{StartDelay: time.Second}, nil, nil, nil)
	if err != nil {
		panic(err)
	}
	return p.zones[0].mon
}

func (m *Monitor) AddService(spec workload.ServiceSpec, targetUtil float64) error {
	return m.plane.AddService(spec, targetUtil)
}

func (m *Monitor) state(service string) (*serviceState, error) {
	if ord, ok := m.plane.ordOf[service]; ok {
		if st := m.stateOf(ord); st != nil {
			return st, nil
		}
	}
	return nil, fmt.Errorf("monitor: unknown service %q", service)
}

func (m *Monitor) DeployInitial(service string, now time.Duration) error {
	st, err := m.state(service)
	if err != nil {
		return err
	}
	return m.deployInitial(st, now)
}

func (m *Monitor) StartReplica(service, nodeID string, alloc resources.Vector, now time.Duration) error {
	st, err := m.state(service)
	if err != nil {
		return err
	}
	return m.startReplica(st, nodeID, alloc, now, 0)
}

// Replicas returns the live replicas of a service in creation order.
func (m *Monitor) Replicas(service string) []*container.Container {
	st, err := m.state(service)
	if err != nil {
		return nil
	}
	return m.appendLive(nil, st)
}

// scanState finds the service's state by walking this arbiter's service
// list, never the plane's table; nil when the arbiter holds none.
func (m *Monitor) scanState(name string) *serviceState {
	for _, st := range m.services {
		if st.spec.Name == name {
			return st
		}
	}
	return nil
}

// ZoneOfService returns the zone a service is homed in, or -1.
func (p *Plane) ZoneOfService(name string) int {
	if ord, ok := p.ordOf[name]; ok {
		return p.services[ord].home.idx
	}
	return -1
}

// deployAll deploys every registered service's minimum replicas.
func (p *Plane) deployAll(now time.Duration) error {
	for ord := range p.services {
		if err := p.DeployInitial(ord, now); err != nil {
			return err
		}
	}
	return nil
}

// spillZones returns the zones of a service's spillover shards, as the
// table lists them.
func (p *Plane) spillZones(name string) []int {
	var out []int
	for _, sh := range p.services[p.ordOf[name]].spills {
		out = append(out, sh.za.idx)
	}
	return out
}

// scanResult is where a scan of the arbiters' service lists finds one
// service.
type scanResult struct {
	// home is the zone whose arbiter holds the service's non-guest state
	// (-1 when none does), and spills the zones holding a guest state, in
	// zone order.
	home   int
	spills []int
	// replicas are the service's live replicas in routing order: the home
	// state's, then each guest state's, each resolved by ID through the
	// arbiter's cluster scan.
	replicas []*container.Container
}

// scan finds a service by walking every arbiter's service list, never the
// plane's table.
func (p *Plane) scan(name string) scanResult {
	r := scanResult{home: -1}
	var guests []*container.Container
	for _, z := range p.zones {
		for _, st := range z.mon.services {
			if st.spec.Name != name {
				continue
			}
			var live []*container.Container
			for _, listed := range st.replicas {
				if c, _ := z.mon.cluster.FindContainer(listed.ID); c != nil && c.State != container.StateRemoved {
					live = append(live, c)
				}
			}
			if st.guest {
				r.spills = append(r.spills, z.idx)
				guests = append(guests, live...)
			} else {
				r.home = z.idx
				r.replicas = live
			}
		}
	}
	r.replicas = append(r.replicas, guests...)
	return r
}

// ScanReplicas is scan's replica list, for tests outside the package.
func ScanReplicas(p *Plane, name string) []*container.Container {
	return p.scan(name).replicas
}
