package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
)

// layer names one part of the simulator by the functions that run it. A
// profile sample belongs to a layer inclusively when any frame of its stack
// matches, and exclusively to the innermost layer on its stack.
type layer struct {
	name  string
	match func(fn string) bool
	// named marks simulator layers; the rest (benchmark harness, profiler)
	// count as "other" in the ledger.
	named bool
}

const pkg = "hyscale/internal/"

// self is the benchmark's own function-name prefix in profiles: "main." in
// the benchmark binary, the package path in its test binary.
var self = strings.TrimSuffix(runtime.FuncForPC(reflect.ValueOf(runRep).Pointer()).Name(), "runRep")

func exact(names ...string) func(string) bool {
	return func(fn string) bool {
		for _, n := range names {
			if fn == n {
				return true
			}
		}
		return false
	}
}

func prefix(ps ...string) func(string) bool {
	return func(fn string) bool {
		for _, p := range ps {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
}

// layers is ordered by priority: when one frame matches several layers, the
// first wins in the exclusive ledger.
var layers = []layer{
	{"loadgen.arrivals", exact(pkg + "loadgen.(*Generator).Arrivals"), true},
	{"lb.route", prefix(pkg + "lb.(*Balancer).Route"), true},
	{"monitor.replicas", exact(pkg+"monitor.(*Monitor).AppendReplicas", pkg+"monitor.(*Monitor).Replicas",
		pkg+"monitor.(*Plane).AppendReplicas", pkg+"monitor.(*Plane).Replicas"), true},
	{"platform.route", exact(pkg+"platform.(*World).route", pkg+"platform.(*graphRun).route"), true},
	{"platform.cascade", prefix(pkg + "platform.(*graphRun)."), true},
	{"cluster.advance", exact(pkg + "cluster.(*Cluster).Advance"), true},
	{"metrics.record", prefix(pkg+"metrics.(*Recorder).Record", pkg+"cost.(*Tracker).Observe"), true},
	{"monitor.sample", exact(pkg+"monitor.(*Monitor).Sample", pkg+"monitor.(*Plane).Sample"), true},
	{"monitor.snapshot", exact(pkg + "monitor.(*Monitor).Snapshot"), true},
	{"core.decide", func(fn string) bool {
		return (strings.HasPrefix(fn, pkg+"core.") || strings.HasPrefix(fn, pkg+"scalermgr.")) &&
			strings.HasSuffix(fn, ".Decide")
	}, true},
	{"monitor.apply", exact(pkg+"monitor.(*Monitor).Apply", pkg+"monitor.(*Plane).Apply"), true},
	{"monitor.poll", exact(pkg+"monitor.(*Monitor).Poll", pkg+"monitor.(*Plane).Poll"), true},
	{"obs.journal", prefix(pkg + "obs."), true},
	{"metrics.harvest", exact(pkg+"metrics.(*Recorder).Summarize", self+"harvest"), true},
	{"platform.tick", exact(pkg + "platform.(*World).tick"), true},
	{"platform.poll", exact(pkg + "platform.(*World).poll"), true},
	{"sim.engine", prefix(pkg + "sim."), true},
	// platform.run covers every step, including events outside the tick
	// and the poll (cascade retries); it owns only its own frame.
	{"platform.run", exact(pkg + "platform.(*World).Run"), true},
	{"runtime.gc", exact("runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"), true},
	{"trace.profiler", prefix("runtime/pprof."), false},
	{"simbench.harness", prefix(self), false},
}

// ledger is a decoded CPU profile folded onto the layers.
type ledger struct {
	total     int64
	main      int64 // samples on the stepping goroutine (stack holds runRep)
	inclusive map[string]int64
	// mainInclusive counts only stepping-goroutine samples.
	mainInclusive map[string]int64
	exclusive     map[string]int64
	other         int64
}

func newLedger() *ledger {
	return &ledger{inclusive: map[string]int64{}, mainInclusive: map[string]int64{}, exclusive: map[string]int64{}}
}

// add folds one gzipped pprof CPU profile into the ledger.
func (l *ledger) add(raw []byte) error {
	stacks, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range stacks {
		l.total += s.count
		onMain := false
		for _, fn := range s.frames {
			if fn == self+"runRep" {
				onMain = true
			}
		}
		if onMain {
			l.main += s.count
		}
		owner := ""
		for _, ly := range layers {
			for _, fn := range s.frames {
				if ly.match(fn) {
					l.inclusive[ly.name] += s.count
					if onMain {
						l.mainInclusive[ly.name] += s.count
					}
					break
				}
			}
		}
	frames:
		for _, fn := range s.frames {
			for _, ly := range layers {
				if ly.match(fn) {
					owner = ly.name
					break frames
				}
			}
		}
		if owner == "" {
			l.other += s.count
		} else {
			l.exclusive[owner] += s.count
		}
	}
	return nil
}

func (l *ledger) pct(n int64) float64 {
	if l.total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(l.total)
}

// namedPct is the exclusive share of samples owned by simulator layers.
func (l *ledger) namedPct() float64 {
	var n int64
	for _, ly := range layers {
		if ly.named {
			n += l.exclusive[ly.name]
		}
	}
	return l.pct(n)
}

// otherPct is everything the named layers do not own: unmatched stacks, the
// harness and the profiler.
func (l *ledger) otherPct() float64 {
	n := l.other
	for _, ly := range layers {
		if !ly.named {
			n += l.exclusive[ly.name]
		}
	}
	return l.pct(n)
}

// sumCheck verifies that the exclusive ledger accounts for every sample once.
func (l *ledger) sumCheck() error {
	if l.total == 0 {
		return errors.New("profile holds no samples")
	}
	if sum := l.namedPct() + l.otherPct(); sum < 99.999 || sum > 100.001 {
		return fmt.Errorf("named %.3f%% + other %.3f%% = %.3f%%, want 100%%", l.namedPct(), l.otherPct(), sum)
	}
	return nil
}

// mainPct is a layer's inclusive share of the stepping goroutine's samples,
// comparable with a share of wall time measured by spans.
func (l *ledger) mainPct(name string) float64 {
	if l.main == 0 {
		return 0
	}
	return 100 * float64(l.mainInclusive[name]) / float64(l.main)
}

// stdErrPP is the standard error, in percentage points, of a share sampled
// from n profile samples when its true value is pct.
func stdErrPP(pct float64, n int64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	p := math.Min(1, math.Max(0, pct/100))
	return 100 * math.Sqrt(p*(1-p)/float64(n))
}

// stack is one profile sample: its weight and its function names, leaf first.
type stack struct {
	count  int64
	frames []string
}

// decodeProfile reads the sample stacks of a gzipped pprof profile. It
// decodes only the protobuf fields it needs: samples (location ids and
// values), locations (line entries, innermost inlined function first),
// functions and the string table.
func decodeProfile(raw []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields walks one protobuf message, calling visit with each field number
// and either its varint value or its length-delimited bytes.
func fields(data []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := varint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := visit(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either as one
// value (b nil) or packed (b holds the varints).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
