package main

import (
	"fmt"
	"strings"

	"hyscale/internal/cost"
	"hyscale/internal/metrics"
	"hyscale/internal/monitor"
	"hyscale/internal/platform"
	"hyscale/internal/resilience"
)

// outputs are the simulated results of a run as its public accessors report
// them. They are deterministic for a given workload and seed.
type outputs struct {
	summary   metrics.Summary
	cost      cost.Report
	actions   monitor.ActionCounts
	recovery  monitor.RecoveryCounts
	connFail  platform.ConnFailureBreakdown
	evac      *monitor.EvacCounts
	cascade   *platform.CascadeStats
	res       *resilience.Counters
	decisions int
	events    int
}

// harvest reads the results; it is the last step of the timed window.
func harvest(w *platform.World) outputs {
	ctl := w.Control()
	o := outputs{
		summary:   w.Summary(),
		cost:      w.CostReport(),
		actions:   ctl.Counts(),
		recovery:  ctl.Recovery(),
		connFail:  w.ConnFailures(),
		evac:      w.ZoneEvac(),
		decisions: len(w.Journal().Decisions()),
		events:    len(w.Journal().Events()),
	}
	if w.HasCallGraph() {
		cs := w.CascadeStats()
		rc := w.Resilience().Counters()
		o.cascade, o.res = &cs, &rc
	}
	return o
}

// digest renders every output field; two runs with equal digests produced
// the same simulated results.
func (o outputs) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%+v\n%+v\n%+v\n%+v\n", o.summary, o.cost, o.actions, o.recovery, o.connFail)
	if o.evac != nil {
		fmt.Fprintf(&b, "%+v\n", *o.evac)
	}
	if o.cascade != nil {
		fmt.Fprintf(&b, "%+v\n%+v\n", *o.cascade, *o.res)
	}
	fmt.Fprintf(&b, "journal %d %d\n", o.decisions, o.events)
	return b.String()
}

func (o outputs) counts() counts {
	c := counts{
		requests:     o.summary.Requests,
		vertical:     o.actions.Vertical,
		scaleOuts:    o.actions.ScaleOuts,
		scaleIns:     o.actions.ScaleIns,
		connFailures: o.connFail.Starting + o.connFail.Absent + o.connFail.Unhealthy,
		decisions:    o.decisions,
	}
	if o.evac != nil {
		c.evacServices = o.evac.ServicesEvacuated
	}
	if o.cascade != nil {
		c.requests = o.cascade.RootGenerated
		c.retries = o.res.Retries
		if o.res.FirstAttempts > 0 {
			c.amplification = float64(o.res.TotalAttempts) / float64(o.res.FirstAttempts)
		}
	}
	return c
}
