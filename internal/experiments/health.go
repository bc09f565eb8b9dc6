package experiments

import (
	"fmt"
	"time"

	"hyscale/internal/container"
	"hyscale/internal/faults"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
	"hyscale/internal/sim"
)

// HookHealth is the registered runner hook attaching the health probe: the
// one definition of availability and recovery every experiment reports. It
// samples once per simulated second, measuring from the fault onset (the
// earliest scheduled node failure or fault window; see faultOnset), and its
// finalizer fills these Result.Extra keys:
//
//   - availabilityPercent: the share of service-seconds up, where a
//     service is up when at least one replica is routable and not inside
//     an injected backend outage (100 when never sampled).
//   - reconvergeSeconds: onset to the last return of every service to its
//     pre-onset provisioned CPU (see reconvergence); 0 when never
//     degraded, -1 when never restored.
//   - goodputRecoverySeconds and degradedSeconds, on call-graph worlds
//     only: root goodput against its pre-onset rate (see goodputRecovery).
const HookHealth = "health"

const (
	extraAvailability    = "availabilityPercent"
	extraReconverge      = "reconvergeSeconds"
	extraGoodputRecovery = "goodputRecoverySeconds"
	extraDegraded        = "degradedSeconds"
)

// faultOnset returns the earliest scheduled node failure or fault window
// opening in the spec, or -1 when it schedules neither.
func faultOnset(spec runner.RunSpec) time.Duration {
	onset := time.Duration(-1)
	earliest := func(at time.Duration) {
		if onset < 0 || at < onset {
			onset = at
		}
	}
	for _, f := range spec.NodeFailures {
		earliest(f.At)
	}
	for _, w := range spec.Platform.Faults.Windows {
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
	base      []float64     // per service, in spec order
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
	window          []float64 // the last 5 per-second rates since the onset
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
	g.window = append(g.window, rate)
	if len(g.window) > 5 {
		g.window = g.window[1:]
	}
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

// fmtRecovery renders a recovery time for a table: "-" for never.
func fmtRecovery(seconds float64) string {
	if seconds < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0fs", seconds)
}

// attachHealth schedules the health probe's per-second sampler over the
// spec's services.
func attachHealth(w *platform.World, spec runner.RunSpec) (runner.Finalizer, error) {
	onset := faultOnset(spec)
	capacity := newReconvergence(onset, len(spec.Services))
	var goodput *goodputRecovery
	if w.HasCallGraph() {
		goodput = &goodputRecovery{onset: onset, recovered: -1}
	}
	ctl, inj := w.Control(), w.FaultInjector()
	var total, up uint64
	var buf []*container.Container
	cpu := make([]float64, len(spec.Services))
	err := w.Engine().SchedulePeriodic(time.Second, time.Second, func(e *sim.Engine) {
		now := e.Now()
		for i, s := range spec.Services {
			buf = ctl.AppendReplicas(buf[:0], s.Spec.Name)
			total++
			if serviceUp(now, inj, buf) {
				up++
			}
			cpu[i] = 0
			for _, c := range buf {
				cpu[i] += c.Alloc.CPU
			}
		}
		capacity.sample(now, cpu)
		if goodput != nil {
			goodput.sample(now, w.CascadeStats().RootCompleted)
		}
	})
	if err != nil {
		return nil, err
	}
	return func(res *runner.Result) {
		if res.Extra == nil {
			res.Extra = make(map[string]float64)
		}
		res.Extra[extraAvailability] = 100
		if total > 0 {
			res.Extra[extraAvailability] = 100 * float64(up) / float64(total)
		}
		res.Extra[extraReconverge] = capacity.seconds()
		if goodput != nil {
			res.Extra[extraGoodputRecovery] = sinceOnset(goodput.degraded, goodput.recovered, onset)
			res.Extra[extraDegraded] = float64(goodput.degradedSeconds)
		}
	}, nil
}

func init() { runner.RegisterHook(HookHealth, attachHealth) }
