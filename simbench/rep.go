package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"hyscale/internal/loadgen"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
)

// rep is everything one repetition measured. A repetition builds a fresh
// world, warms it up, steps it one tick at a time through the timed window,
// harvests the results, then drains it for the correctness gates.
type rep struct {
	// Set-up spans in seconds: parse+compile, build, and all of set-up.
	compile, build, setup float64
	// Timed window in wall seconds, from the end of warm-up through the
	// harvest, and the harvest alone.
	window, harvest float64
	// Wall time of each warm-up and window step in ms, in simulated order;
	// poll marks the window steps that also ran a monitor poll.
	warmSteps, steps []float64
	poll             []bool
	simWindowS       float64

	heapLiveMB   float64
	allocMB      float64
	gcCycles     uint32
	okPct, p99Ms float64
	costUSD      float64
	counts       counts
	// digest fingerprints the simulated outputs at the harvest and after
	// the drain.
	digest  string
	profile []byte
	gateErr error
}

// counts are the exact behaviour counters read from public accessors.
type counts struct {
	requests      uint64
	vertical      uint64
	scaleOuts     uint64
	scaleIns      uint64
	evacServices  uint64
	connFailures  uint64
	retries       uint64
	amplification float64
	decisions     int
}

// runRep runs one repetition. traced wraps the timed window in a CPU
// profile; replay also checks the request count against a replay of the
// arrival process (every repetition is the same simulation, so one replay
// per run suffices). An error means the simulator could not be built or
// run; a failed correctness gate is reported in rep.gateErr instead.
func runRep(wl *workload, raw []byte, seed int64, size float64, traced, replay bool) (*rep, error) {
	r := &rep{}
	runtime.GC()
	t0 := time.Now()
	spec, err := wl.compile(raw, seed, size)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	w, _, err := runner.Build(spec)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	tick := spec.Platform.Tick
	horizon := wl.horizonFor(size)
	if r.warmSteps, err = stepTo(w, 0, wl.warmup, tick, nil); err != nil {
		return nil, err
	}
	r.compile = t1.Sub(t0).Seconds()
	r.build = t2.Sub(t1).Seconds()
	r.setup = time.Since(t0).Seconds()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	if r.steps, err = stepTo(w, wl.warmup, horizon, tick, make([]float64, 0, (horizon-wl.warmup)/tick)); err != nil {
		return nil, err
	}
	last := time.Now()
	out := harvest(w)
	end := time.Now()
	if traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	runtime.ReadMemStats(&ms1)
	r.window = end.Sub(start).Seconds()
	r.harvest = end.Sub(last).Seconds()
	r.simWindowS = (horizon - wl.warmup).Seconds()
	r.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.gcCycles = ms1.NumGC - ms0.NumGC
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	r.heapLiveMB = float64(ms1.HeapAlloc) / (1 << 20)

	period := spec.Platform.MonitorPeriod
	for i := range r.steps {
		at := wl.warmup + time.Duration(i+1)*tick
		r.poll = append(r.poll, period > 0 && at%period == 0)
	}
	r.okPct = 100 - out.cost.ViolationPercent()
	r.p99Ms = float64(out.summary.P99Latency.Nanoseconds()) / 1e6
	r.costUSD = out.cost.TotalCost
	drained, err := drain(w, horizon+drainMax, tick)
	if err != nil {
		return nil, err
	}
	r.counts = drained.counts()
	r.gateErr = checkGates(w, drained)
	if replay && r.gateErr == nil {
		if want := generated(spec, horizon); r.counts.requests != want {
			r.gateErr = fmt.Errorf("%d requests accounted for, the arrival process generated %d", r.counts.requests, want)
		}
	}
	sum := sha256.Sum256([]byte(out.digest() + "\n" + drained.digest()))
	r.digest = hex.EncodeToString(sum[:8])
	return r, nil
}

// stepTo advances w one tick at a time from one simulated instant to
// another, appending the wall time of each step in ms to dst.
func stepTo(w *platform.World, from, to, tick time.Duration, dst []float64) ([]float64, error) {
	last := time.Now()
	for now := from; now < to; now += tick {
		if err := w.Run(now + tick); err != nil {
			return nil, err
		}
		t := time.Now()
		dst = append(dst, float64(t.Sub(last).Nanoseconds())/1e6)
		last = t
	}
	return dst, nil
}

// inflight counts requests held by containers: queued, running, or waiting
// on downstream calls.
func inflight(w *platform.World) int {
	n := 0
	for _, node := range w.Cluster().Nodes() {
		for _, c := range node.Containers() {
			n += c.Inflight()
		}
	}
	return n
}

// drain steps the world past the horizon, where arrivals have stopped, until
// no request is in flight, and harvests again.
func drain(w *platform.World, deadline, tick time.Duration) (outputs, error) {
	now := w.Engine().Now()
	for now < deadline && (inflight(w) > 0 || !rootsResolved(w)) {
		now += 10 * tick
		if err := w.Run(now); err != nil {
			return outputs{}, err
		}
	}
	return harvest(w), nil
}

func rootsResolved(w *platform.World) bool {
	if !w.HasCallGraph() {
		return true
	}
	cs := w.CascadeStats()
	return cs.RootGenerated == cs.RootCompleted+cs.RootShed+cs.RootDeadline+cs.RootFailed
}

// checkGates applies the correctness gates to one drained repetition: no
// clamped events, nothing left in flight, and every request resolved to
// exactly one outcome.
func checkGates(w *platform.World, drained outputs) error {
	if c := w.ClampedEvents(); c != 0 {
		return fmt.Errorf("%d events clamped to now", c)
	}
	if n := inflight(w); n != 0 {
		return fmt.Errorf("%d requests still in flight after the drain", n)
	}
	s := drained.summary
	if s.Requests != s.Completed+s.RemovalFailures+s.ConnectionFailures {
		return fmt.Errorf("requests %d != completed %d + removal %d + connection %d",
			s.Requests, s.Completed, s.RemovalFailures, s.ConnectionFailures)
	}
	if cf := drained.connFail; cf.Starting+cf.Absent+cf.Unhealthy > s.ConnectionFailures {
		return fmt.Errorf("routing failures %d exceed connection failures %d",
			cf.Starting+cf.Absent+cf.Unhealthy, s.ConnectionFailures)
	}
	if cs := drained.cascade; cs != nil {
		resolved := cs.RootCompleted + cs.RootShed + cs.RootDeadline + cs.RootFailed
		if cs.RootGenerated != resolved {
			return fmt.Errorf("roots generated %d != resolved %d", cs.RootGenerated, resolved)
		}
		for _, k := range cs.EdgeKeys() {
			e := cs.Edges[k]
			if e.Issued != e.Delivered+e.Dropped {
				return fmt.Errorf("edge %s: issued %d != delivered %d + dropped %d",
					k, e.Issued, e.Delivered, e.Dropped)
			}
		}
	}
	return nil
}

// generated replays the world's arrival process outside the world: the same
// generators, ticks and Poisson draws from a source seeded like the
// engine's, which the arrival generators alone draw from. It returns how
// many requests (call-graph roots) the world was offered before the horizon.
func generated(spec runner.RunSpec, horizon time.Duration) uint64 {
	var ids loadgen.IDAllocator
	var gens []*loadgen.Generator
	for _, s := range spec.Services {
		if p, err := s.Load.Pattern(); err == nil && p != nil {
			g := loadgen.NewGenerator(s.Spec, p, &ids)
			g.Poisson = spec.Platform.PoissonArrivals
			gens = append(gens, g)
		}
	}
	rng := rand.New(rand.NewSource(spec.Platform.Seed))
	tick := spec.Platform.Tick
	var n uint64
	for now := tick; now < horizon; now += tick {
		for _, g := range gens {
			n += uint64(len(g.Arrivals(now, tick, rng)))
		}
	}
	return n
}
