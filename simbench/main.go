// Command simbench is the simulator's benchmark. It drives the simulator only
// through its public entry points (scenario.Parse/Compile, runner.Build,
// platform.World.Run stepped one tick at a time, then the result accessors),
// in one process and on one goroutine, and prints one JSON line of metrics.
//
// Each run repeats whole simulations of one workload until --seconds have
// passed, at least minReps times. Every repetition replays the identical
// simulation, so step k of one repetition does exactly the work of step k
// of another. The timings are therefore built from the fastest of the
// repetitions' wall times for each step: interference from other tenants of
// the machine only ever slows a step, and it rarely hits every repetition at
// the same step. sim_rate divides the window's simulated seconds by the sum
// of those step times plus the fastest harvest; setup_s is the fastest
// parse+compile+build plus the summed fastest warm-up steps.
//
// Every repetition is gated: no clamped events, request conservation after
// a drain, and the same digest of simulated outputs as every other
// repetition. With --trace 1 it alternates plain and CPU-profiled
// repetitions and reports the per-layer ledger instead of the end-to-end
// metrics; the ledger must add up to 100% and agree with the step spans.
//
// Usage, from the repository root:
//
//	bash simbench/run.sh --workload dc5k-dr --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanTolerancePP is how far, in percentage points, the span-measured
// tick/poll shares of the window may sit from the profile's inclusive
// shares of the same functions, on top of three standard errors of the
// sampled share. Profile-based gates allow three standard errors so that
// short profiles (the smoke test) do not fail on sampling noise alone.
const spanTolerancePP = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: dc5k-dr, cascade-storm or ctl-dense")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "how long to keep repeating simulations")
		trace   = flag.Int("trace", 0, "1 reports the per-layer ledger from profiled repetitions")
	)
	flag.Parse()
	res, err := run(*name, ".", *seed, *seconds, *trace == 1, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload. repo is the repository root holding
// scenarios/; size is 1 for the benchmark and smaller in the smoke test.
func run(name, repo string, seed int64, seconds float64, traced bool, size float64) (*result, error) {
	wl, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(repo, wl.file))
	if err != nil {
		return nil, err
	}
	const minReps = 4
	var reps []*rep
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		profiled := traced && len(reps)%2 == 1
		r, err := runRep(wl, raw, seed, size, profiled, len(reps) == 0)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
		}
		reps = append(reps, r)
		fmt.Fprintf(os.Stderr, "rep %d profiled=%v setup %.3fs window %.3fs (%.1f sim_s/s) digest %s\n",
			len(reps), profiled, r.setup, r.window, r.simWindowS/r.window, r.digest)
	}

	res := &result{Correct: true, Attempted: len(reps), Metrics: map[string]metric{}}
	for _, r := range reps {
		if r.gateErr == nil && r.digest != reps[0].digest {
			r.gateErr = fmt.Errorf("digest %s differs from the first repetition's %s", r.digest, reps[0].digest)
		}
		if r.gateErr != nil {
			fmt.Fprintln(os.Stderr, "gate failed:", r.gateErr)
			res.Failed++
			res.Correct = false
		}
	}
	if traced {
		if err := layerMetrics(res, wl, reps); err != nil {
			// A ledger that does not add up fails the profiled repetitions.
			fmt.Fprintln(os.Stderr, "gate failed:", err)
			res.Correct = false
			for _, r := range reps {
				if r.profile != nil && r.gateErr == nil {
					res.Failed++
				}
			}
		}
	} else {
		endToEnd(res, reps)
	}
	return res, nil
}

// endToEnd fills the metrics a user of the simulator sees, from the fastest
// instance of each step over the repetitions.
func endToEnd(res *result, reps []*rep) {
	steps := stepMins(reps, func(r *rep) []float64 { return r.steps })
	warm := stepMins(reps, func(r *rep) []float64 { return r.warmSteps })
	window := sum(steps)/1000 + fastest(reps, func(r *rep) float64 { return r.harvest })
	setup := sum(warm)/1000 + fastest(reps, func(r *rep) float64 { return r.compile + r.build })
	sort.Float64s(steps)
	first := reps[0]
	m := res.Metrics
	m["sim_rate"] = metric{first.simWindowS / window, "sim_s/s"}
	m["step_p50_ms"] = metric{quantile(steps, 0.50), "ms"}
	m["step_p99_ms"] = metric{quantile(steps, 0.99), "ms"}
	m["setup_s"] = metric{setup, "s"}
	m["heap_live_mb"] = metric{median(reps, func(r *rep) float64 { return r.heapLiveMB }), "MB"}
	m["sim_ok_pct"] = metric{first.okPct, "%"}
	m["sim_p99_ms"] = metric{first.p99Ms, "sim_ms"}
	m["sim_cost_usd"] = metric{first.costUSD, "usd"}
	fmt.Fprintf(os.Stderr, "%d steps per repetition, each the fastest of %d repetitions\n", len(steps), len(reps))
}

// stepMins returns, for each step index, the fastest wall time of that step
// over the repetitions.
func stepMins(reps []*rep, steps func(*rep) []float64) []float64 {
	out := append([]float64(nil), steps(reps[0])...)
	for _, r := range reps[1:] {
		for k, d := range steps(r) {
			out[k] = math.Min(out[k], d)
		}
	}
	return out
}

// fastest is the smallest of a span over the repetitions.
func fastest(reps []*rep, f func(*rep) float64) float64 {
	best := f(reps[0])
	for _, r := range reps[1:] {
		best = math.Min(best, f(r))
	}
	return best
}

// layerMetrics fills the per-layer ledger: set-up and window spans, profile
// shares, exact behaviour counts and the tracing overhead. It returns an
// error when the ledger does not add up.
func layerMetrics(res *result, wl *workload, reps []*rep) error {
	var plain, profiled []*rep
	l := newLedger()
	for _, r := range reps {
		if r.profile == nil {
			plain = append(plain, r)
			continue
		}
		profiled = append(profiled, r)
		if err := l.add(r.profile); err != nil {
			return err
		}
	}
	m := res.Metrics
	ms := func(name string, f func(*rep) float64) {
		m[name] = metric{1000 * fastest(profiled, f), "ms"}
	}
	ms("scenario.compile_ms", func(r *rep) float64 { return r.compile })
	ms("runner.build_ms", func(r *rep) float64 { return r.build })
	ms("runner.warmup_ms", func(r *rep) float64 { return sum(r.warmSteps) / 1000 })
	ms("metrics.harvest_ms", func(r *rep) float64 { return r.harvest })
	tick, poll := split(stepMins(profiled, func(r *rep) []float64 { return r.steps }), profiled[0].poll)
	m["platform.tick_ms"] = metric{mean(tick), "ms"}
	m["monitor.poll_ms"] = metric{mean(poll) - mean(tick), "ms"}

	for _, name := range []string{"loadgen.arrivals", "platform.route", "lb.route", "monitor.replicas",
		"cluster.advance", "metrics.record", "monitor.sample", "monitor.poll", "monitor.snapshot",
		"core.decide", "monitor.apply", "obs.journal", "platform.cascade", "metrics.harvest", "runtime.gc"} {
		m[name+"_pct"] = metric{l.pct(l.inclusive[name]), "%"}
	}
	m["sim.engine_self_pct"] = metric{l.pct(l.exclusive["sim.engine"]), "%"}
	m["platform.world_self_pct"] = metric{l.pct(l.exclusive["platform.tick"] + l.exclusive["platform.poll"]), "%"}
	m["ledger.named_pct"] = metric{l.namedPct(), "%"}
	m["ledger.other_pct"] = metric{l.otherPct(), "%"}
	m["ledger.samples"] = metric{float64(l.total), "count"}

	c := reps[0].counts
	m["loadgen.requests"] = metric{float64(c.requests), "count"}
	m["monitor.vertical"] = metric{float64(c.vertical), "count"}
	m["monitor.scale_outs"] = metric{float64(c.scaleOuts), "count"}
	m["monitor.scale_ins"] = metric{float64(c.scaleIns), "count"}
	m["monitor.evac_services"] = metric{float64(c.evacServices), "count"}
	m["lb.conn_failures"] = metric{float64(c.connFailures), "count"}
	m["resilience.retries"] = metric{float64(c.retries), "count"}
	m["platform.cascade_amplification"] = metric{c.amplification, "ratio"}
	m["obs.decisions"] = metric{float64(c.decisions), "count"}

	m["runtime.alloc_mb_per_sim_s"] = metric{median(plain, func(r *rep) float64 { return r.allocMB / r.simWindowS }), "MB/sim_s"}
	m["runtime.gc_cycles"] = metric{median(plain, func(r *rep) float64 { return float64(r.gcCycles) }), "count"}
	window := func(reps []*rep) float64 {
		return sum(stepMins(reps, func(r *rep) []float64 { return r.steps })) / 1000
	}
	m["trace.overhead_pct"] = metric{100 * (window(profiled)/window(plain) - 1), "%"}

	// The span split of the window must agree with the profile. A step's
	// time outside its poll is everything World.Run did except World.poll.
	tickSpan := median(profiled, func(r *rep) float64 { return spanShare(r, true) })
	pollSpan := median(profiled, func(r *rep) float64 { return spanShare(r, false) })
	tickProf := l.mainPct("platform.run") - l.mainPct("platform.poll")
	pollProf := l.mainPct("platform.poll")
	tickGap := math.Abs(tickSpan - tickProf)
	pollGap := math.Abs(pollSpan - pollProf)
	m["ledger.tick_gap_pp"] = metric{tickGap, "pp"}
	m["ledger.poll_gap_pp"] = metric{pollGap, "pp"}
	fmt.Fprintf(os.Stderr, "ledger: %d samples, named %.1f%%, other %.1f%%; tick span %.1f%% vs profile %.1f%%, poll span %.1f%% vs profile %.1f%%\n",
		l.total, l.namedPct(), l.otherPct(), tickSpan, tickProf, pollSpan, pollProf)
	for _, ly := range layers {
		fmt.Fprintf(os.Stderr, "  %-20s inclusive %5.1f%%  exclusive %5.1f%%\n", ly.name,
			l.pct(l.inclusive[ly.name]), l.pct(l.exclusive[ly.name]))
	}
	fmt.Fprintf(os.Stderr, "  %-20s exclusive %5.1f%%\n", "(unmatched)", l.pct(l.other))

	if err := l.sumCheck(); err != nil {
		return err
	}
	if named := l.namedPct(); named+3*stdErrPP(wl.minNamedPct, l.total) < wl.minNamedPct {
		return fmt.Errorf("ledger names %.1f%% of %d samples, want at least %.0f%%", named, l.total, wl.minNamedPct)
	}
	if tol := spanTolerancePP + 3*stdErrPP(tickSpan, l.main); tickGap > tol {
		return fmt.Errorf("span and profile disagree on the tick share: %.1f vs %.1f%% (tolerance %.1f pp)",
			tickSpan, tickProf, tol)
	}
	if tol := spanTolerancePP + 3*stdErrPP(pollSpan, l.main); pollGap > tol {
		return fmt.Errorf("span and profile disagree on the poll share: %.1f vs %.1f%% (tolerance %.1f pp)",
			pollSpan, pollProf, tol)
	}
	return nil
}

// spanShare is the share of a repetition's window spent in the physics tick
// (tick true) or the monitor poll, from step spans: a poll step is charged
// one mean tick step to the tick and the rest to the poll.
func spanShare(r *rep, tick bool) float64 {
	ticks, polls := split(r.steps, r.poll)
	t := mean(ticks)
	tickMs := sum(ticks) + t*float64(len(polls))
	pollMs := sum(polls) - t*float64(len(polls))
	if tick {
		return tickMs / (10 * r.window)
	}
	return pollMs / (10 * r.window)
}

// split divides window step times into physics-only steps and steps that
// also ran a monitor poll.
func split(steps []float64, isPoll []bool) (tick, poll []float64) {
	for k, d := range steps {
		if isPoll[k] {
			poll = append(poll, d)
		} else {
			tick = append(tick, d)
		}
	}
	return tick, poll
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func median(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between the order statistics of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
