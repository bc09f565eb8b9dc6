package platform

import (
	"time"

	"hyscale/internal/container"
	"hyscale/internal/faults"
	"hyscale/internal/obs"
	"hyscale/internal/sim"
)

// The health signal's series in World.Metrics, published only by a world
// that can fail (see startHealth). Availability is two counters, the
// service-seconds up and sampled, so a reader recomputes 100*up/sampled
// exactly. Reconvergence (see reconvergence) and, on call-graph worlds only,
// goodput recovery and degraded time (see goodputRecovery) are seconds.
const (
	SeriesAvailabilityUp      = "hyscale_availability_up_service_seconds_total"
	SeriesAvailabilitySampled = "hyscale_availability_sampled_service_seconds_total"
	SeriesReconverge          = "hyscale_reconverge_seconds"
	SeriesGoodputRecovery     = "hyscale_goodput_recovery_seconds"
	SeriesDegraded            = "hyscale_degraded_seconds"
)

// health is the world's one definition of availability and recovery,
// sampled once per simulated second from the fault onset's point of view.
type health struct {
	onset    time.Duration
	capacity *reconvergence
	goodput  *goodputRecovery // nil without a call graph
	// up and sampled count service-seconds.
	up, sampled uint64
	// cpu holds one sample's provisioned CPU per service, by ordinal; buf is
	// the replica-lookup buffer. Both are reused, so a sample allocates
	// nothing.
	cpu []float64
	buf []*container.Container
}

// startHealth schedules the per-second health sampler if the world can
// fail: its fault injection is enabled or a node failure is scheduled. A
// world that cannot fail schedules nothing. Run calls it before it schedules
// the tick, so at a shared instant the sampler reads state before the tick
// changes it. It samples the services registered by then.
func (w *World) startHealth() error {
	if !w.cfg.Faults.Enabled() && len(w.failures) == 0 {
		return nil
	}
	onset := faultOnset(w.failures, w.cfg.Faults.Windows)
	w.health = &health{
		onset:    onset,
		capacity: newReconvergence(onset, len(w.services)),
		cpu:      make([]float64, len(w.services)),
	}
	if w.graph != nil {
		w.health.goodput = &goodputRecovery{onset: onset, recovered: -1}
	}
	return w.engine.SchedulePeriodic(time.Second, time.Second, w.sampleHealth)
}

// sampleHealth takes one second's sample: each service's availability and
// the provisioned CPU of its live replicas, in creation order.
func (w *World) sampleHealth(e *sim.Engine) {
	h, now := w.health, e.Now()
	for i, rt := range w.services[:len(h.cpu)] {
		// The route view may still hold removed replicas; they are never
		// routable, and carry no provisioned CPU here.
		view := w.ctl.RouteView(rt.ord, &h.buf)
		h.sampled++
		if serviceUp(now, w.faults, view) {
			h.up++
		}
		h.cpu[i] = 0
		for _, c := range view {
			if c.State != container.StateRemoved {
				h.cpu[i] += c.Alloc.CPU
			}
		}
	}
	h.capacity.sample(now, h.cpu)
	if h.goodput != nil {
		h.goodput.sample(now, w.graph.rootCompleted)
	}
}

// metrics appends the health series to l.
func (h *health) metrics(l *seriesList) {
	l.counter(SeriesAvailabilityUp, "Service-seconds with a routable replica outside an injected backend outage.", h.up)
	l.counter(SeriesAvailabilitySampled, "Service-seconds the health signal sampled.", h.sampled)
	l.family(obs.TypeGauge, SeriesReconverge, "Seconds from the fault onset until provisioned CPU last returned to baseline (0 never degraded, -1 never restored).")("", h.capacity.seconds())
	if g := h.goodput; g != nil {
		l.family(obs.TypeGauge, SeriesGoodputRecovery, "Seconds from the fault onset until root goodput sustainably regained 80% of its pre-onset rate (0 never degraded, -1 never recovered).")("", sinceOnset(g.degraded, g.recovered, h.onset))
		l.family(obs.TypeGauge, SeriesDegraded, "Seconds after the fault onset with root goodput below 80% of its pre-onset rate.")("", float64(g.degradedSeconds))
	}
}

// faultOnset returns the earliest scheduled node failure or fault window
// opening, or -1 when there is neither.
func faultOnset(failures []time.Duration, windows []faults.Window) time.Duration {
	onset := time.Duration(-1)
	earliest := func(at time.Duration) {
		if onset < 0 || at < onset {
			onset = at
		}
	}
	for _, at := range failures {
		earliest(at)
	}
	for _, w := range windows {
		earliest(w.From)
	}
	return onset
}

// serviceUp reports whether at least one replica is routable and not
// black-holed by an injected backend outage at now.
func serviceUp(now time.Duration, inj *faults.Injector, replicas []*container.Container) bool {
	for _, c := range replicas {
		if c.Routable() && !inj.BackendDown(now, c.Service, c.ID) {
			return true
		}
	}
	return false
}

// reconvergence is a Schmitt trigger over each service's provisioned CPU,
// against a low-water baseline taken over the later half of the pre-onset
// window (the earlier half is deployment ramp-up). Capacity, not replica
// count, because an algorithm is free to rebuild the same capacity out of
// fewer, larger replicas. Any service below 80% of its baseline arms the
// cell — only a real loss cuts that deep — and the cell is restored when
// every service is back at 95%; the gap keeps ordinary re-shaping jitter
// from re-arming a cell that has genuinely recovered.
type reconvergence struct {
	onset     time.Duration // -1: no fault, never degraded
	base      []float64     // per service, by ordinal
	baselined bool
	degraded  bool
	restored  time.Duration // last return to baseline; -1 while degraded
}

func newReconvergence(onset time.Duration, services int) *reconvergence {
	return &reconvergence{onset: onset, base: make([]float64, services), restored: -1}
}

// sample feeds one second's provisioned CPU per service.
func (r *reconvergence) sample(now time.Duration, cpu []float64) {
	if r.onset < 0 || now < r.onset {
		switch {
		case now < r.onset/2:
		case !r.baselined:
			copy(r.base, cpu)
			r.baselined = true
		default:
			for i, c := range cpu {
				r.base[i] = min(r.base[i], c)
			}
		}
		return
	}
	restored, deep := true, false
	for i, c := range cpu {
		switch {
		case c < 0.80*r.base[i]:
			restored, deep = false, true
			r.degraded = true
		case c < 0.95*r.base[i]:
			restored = false
		}
	}
	// Failure detection takes several poll periods, so the first post-onset
	// samples may still read as restored. Every deep dip (the first loss or
	// a later failure wave) clears the return, so the reported instant is
	// the LAST return after it; jitter inside the band neither latches nor
	// resets.
	switch {
	case deep:
		r.restored = -1
	case restored && r.restored < 0:
		r.restored = now
	}
}

func (r *reconvergence) seconds() float64 {
	return sinceOnset(r.degraded, r.restored, r.onset)
}

// goodputRecovery measures how long after the fault onset the per-second
// root-completion rate takes to sustainably regain 80% of its pre-onset
// mean: a 5-sample moving average holding for at least 60 s. A defended
// call graph recovers while the fault is still active; an undefended
// collapse only clears after the fault itself does.
type goodputRecovery struct {
	onset           time.Duration
	last            uint64
	preSum          float64
	preCount        int
	window          []float64 // the last 5 per-second rates since the onset, oldest first
	recovered       time.Duration
	degraded        bool
	degradedSeconds int // samples below the 80% bar over the whole run
}

// sample feeds the cumulative root-completion count at now.
func (g *goodputRecovery) sample(now time.Duration, completed uint64) {
	rate := float64(completed - g.last)
	g.last = completed
	if g.onset < 0 || now < g.onset {
		g.preSum += rate
		g.preCount++
		return
	}
	pre := g.preSum / float64(max(g.preCount, 1))
	if rate < 0.8*pre {
		g.degraded = true
		g.degradedSeconds++
	}
	if len(g.window) == 5 {
		// Shift in place: the window keeps its backing array.
		g.window = append(g.window[:0], g.window[1:]...)
	}
	g.window = append(g.window, rate)
	var sum float64
	for _, r := range g.window {
		sum += r
	}
	switch {
	case len(g.window) == 5 && sum/5 >= 0.8*pre:
		if g.recovered < 0 {
			g.recovered = now
		}
	case g.recovered >= 0 && now-g.recovered < 60*time.Second:
		// A dip within 60 s of a candidate recovery voids it; after 60 s
		// the recovery is held — brief purge oscillations at the capacity
		// edge are not a re-outage.
		g.recovered = -1
	}
}

// sinceOnset is a recovery time in seconds: 0 when never degraded, -1 when
// never recovered.
func sinceOnset(degraded bool, recovered, onset time.Duration) float64 {
	switch {
	case !degraded:
		return 0
	case recovered < 0:
		return -1
	}
	return (recovered - onset).Seconds()
}
