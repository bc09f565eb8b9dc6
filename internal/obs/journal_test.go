package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"hyscale/internal/resources"
)

// refJournal is the slice-backed journal the chunked store replaced: whole
// Decision and Sample values appended to slices, and each service's
// previous counters in a map. TestJournalMatchesReference holds Journal to
// it.
type refJournal struct {
	decisions []Decision
	samples   []Sample
	events    []Event
	prev      map[string]svcCounters
}

func (r *refJournal) Decision(d Decision) { r.decisions = append(r.decisions, d) }

func (r *refJournal) Event(e Event) { r.events = append(r.events, e) }

func (r *refJournal) Sample(at time.Duration, service string, replicas int,
	cpuShares, cpuUsage, netMbps float64,
	completed, failed uint64, totalLat time.Duration) {
	p := r.prev[service]
	s := Sample{At: at, Service: service, Replicas: replicas,
		CPUShares: cpuShares, CPUUsage: cpuUsage, NetMbps: netMbps}
	if completed >= p.completed {
		s.IntervalCompleted = completed - p.completed
	}
	if failed >= p.failed {
		s.IntervalFailed = failed - p.failed
	}
	if s.IntervalCompleted > 0 && totalLat >= p.totalLat {
		s.IntervalMean = (totalLat - p.totalLat) / time.Duration(s.IntervalCompleted)
	}
	if total := completed + failed; total > 0 {
		s.CumFailedPct = 100 * float64(failed) / float64(total)
	}
	r.prev[service] = svcCounters{completed: completed, failed: failed, totalLat: totalLat}
	r.samples = append(r.samples, s)
}

func (r *refJournal) Services() []string {
	var names []string
	seen := make(map[string]bool)
	for _, s := range r.samples {
		if !seen[s.Service] {
			seen[s.Service] = true
			names = append(names, s.Service)
		}
	}
	return names
}

func (r *refJournal) ServiceSamples(service string) []Sample {
	var out []Sample
	for _, s := range r.samples {
		if s.Service == service {
			out = append(out, s)
		}
	}
	return out
}

func (r *refJournal) OutcomeCounts() map[Outcome]int {
	out := make(map[Outcome]int)
	for _, d := range r.decisions {
		out[d.Outcome]++
	}
	return out
}

func (r *refJournal) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range r.decisions {
		if err := enc.Encode(decisionDTO{T: d.At.Seconds(), Decision: d}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (r *refJournal) WriteSeriesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, seriesHeader)
	for _, s := range r.samples {
		fmt.Fprintf(bw, "%s,%s,%d,%s,%s,%s,%d,%d,%s,%s,%s\n",
			secs(s.At), s.Service, s.Replicas,
			fmtF(s.CPUShares), fmtF(s.CPUUsage), fmtF(s.NetMbps),
			s.IntervalCompleted, s.IntervalFailed,
			fmtF(float64(s.IntervalMean)/float64(time.Millisecond)),
			fmtF(s.IntervalFailedPct()), fmtF(s.CumFailedPct))
	}
	return bw.Flush()
}

// journalPair drives a Journal and the reference with the same calls.
type journalPair struct {
	j   *Journal
	ref *refJournal
	rng *rand.Rand
	// cum holds each service's cumulative counters, which mostly grow but
	// sometimes go backwards.
	cum map[string][3]uint64
}

// testServices and testTargets mix service, container and node names with
// the empty name, and share strings across roles ("api", "api-0"), so one
// name-table entry serves a service in one record and a container in
// another.
var (
	testServices = []string{"api", "web", "", "db", "api-0"}
	testTargets  = []string{"", "api-0", "api-1", "web-3", "node-1", "node-2", "api"}
)

func (p *journalPair) pick(from []string) string { return from[p.rng.Intn(len(from))] }

// kind returns a declared Kind or, one time in four, a string outside them.
func (p *journalPair) kind() Kind {
	if p.rng.Intn(4) == 0 {
		return Kind(fmt.Sprintf("kind-%d", p.rng.Intn(400)))
	}
	return kindCodes[p.rng.Intn(len(kindCodes))]
}

func (p *journalPair) outcome() Outcome {
	if p.rng.Intn(4) == 0 {
		return Outcome(fmt.Sprintf("outcome-%d", p.rng.Intn(400)))
	}
	return outcomeCodes[p.rng.Intn(len(outcomeCodes))]
}

func (p *journalPair) float() float64 { return float64(p.rng.Intn(100000)) / 64 }

func (p *journalPair) decision(at time.Duration) {
	d := Decision{
		At: at, Service: p.pick(testServices), Kind: p.kind(),
		Container: p.pick(testTargets), Node: p.pick(testTargets),
		Alloc: resources.Vector{CPU: p.float(), MemMB: p.float(), NetMbps: p.float()},
		Observed: ServiceObserved{CPU: p.float(), MemMB: p.float(), NetMbps: p.float(),
			RequestedCPU: p.float(), Replicas: p.rng.Intn(40) - 2},
		Attempt: p.rng.Intn(6) - 1,
		Outcome: p.outcome(),
	}
	p.ref.Decision(d)
	if p.rng.Intn(2) == 0 {
		p.j.Decision(d)
		return
	}
	svc := p.j.Intern(d.Service)
	ctr := p.j.Intern(d.Container)
	node := p.j.Intern(d.Node)
	d.Service, d.Container, d.Node = "ignored", "ignored", "ignored"
	p.j.DecisionFor(svc, ctr, node, d)
}

func (p *journalPair) sample(at time.Duration, service string) {
	c := p.cum[service]
	for k := range c {
		if p.rng.Intn(10) == 0 {
			c[k] /= 2 // a counter that goes backwards
		} else {
			c[k] += uint64(p.rng.Intn(1000))
		}
	}
	p.cum[service] = c
	replicas := p.rng.Intn(12)
	shares, usage, net := p.float(), p.float(), p.float()
	lat := time.Duration(c[2]) * time.Millisecond
	p.ref.Sample(at, service, replicas, shares, usage, net, c[0], c[1], lat)
	if p.rng.Intn(2) == 0 {
		p.j.Sample(at, service, replicas, shares, usage, net, c[0], c[1], lat)
	} else {
		p.j.SampleFor(at, p.j.Intern(service), replicas, shares, usage, net, c[0], c[1], lat)
	}
}

func (p *journalPair) event(at time.Duration) {
	e := Event{At: at, Kind: EventKind(p.pick([]string{"node-dead", "odd-event"})),
		Node: p.pick(testTargets), Service: p.pick(testServices),
		Container: p.pick(testTargets), Detail: fmt.Sprintf("detail %d", p.rng.Intn(9))}
	p.ref.Event(e)
	p.j.Event(e)
}

// compare checks every accessor and both artifact writers against the
// reference.
func (p *journalPair) compare(t *testing.T, label string) {
	t.Helper()
	j, ref := p.j, p.ref
	if got, want := j.Decisions(), ref.decisions; !slices.Equal(got, want) {
		t.Fatalf("%s: Decisions differ (%d vs %d)", label, len(got), len(want))
	}
	if got, want := j.NumDecisions(), len(ref.decisions); got != want {
		t.Fatalf("%s: NumDecisions = %d, want %d", label, got, want)
	}
	if got, want := j.Samples(), ref.samples; !slices.Equal(got, want) {
		t.Fatalf("%s: Samples differ (%d vs %d)", label, len(got), len(want))
	}
	if got, want := j.Services(), ref.Services(); !slices.Equal(got, want) {
		t.Fatalf("%s: Services = %q, want %q", label, got, want)
	}
	for _, s := range append(slices.Clone(testServices), testTargets...) {
		if got, want := j.ServiceSamples(s), ref.ServiceSamples(s); !slices.Equal(got, want) {
			t.Fatalf("%s: ServiceSamples(%q) differ (%d vs %d)", label, s, len(got), len(want))
		}
	}
	if j.ServiceSamples("never-seen") != nil {
		t.Fatalf("%s: ServiceSamples of an unknown name is not nil", label)
	}
	if got, want := j.OutcomeCounts(), ref.OutcomeCounts(); !maps.Equal(got, want) {
		t.Fatalf("%s: OutcomeCounts = %v, want %v", label, got, want)
	}
	if got, want := j.Events(), ref.events; !slices.Equal(got, want) {
		t.Fatalf("%s: Events differ (%d vs %d)", label, len(got), len(want))
	}
	var got, want bytes.Buffer
	if err := j.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: WriteJSONL bytes differ", label)
	}
	got.Reset()
	want.Reset()
	if err := j.WriteSeriesCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteSeriesCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: WriteSeriesCSV bytes differ", label)
	}
}

// TestJournalMatchesReference drives the chunked journal and the
// slice-backed reference with the same seeded random calls: Kind and
// Outcome strings outside the declared constants, empty names, services
// sampled in changing order, counters that go backwards, and several
// chunks' worth of decisions and samples. Every accessor and both
// artifact writers must agree, on an empty journal and as it fills.
func TestJournalMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := &journalPair{
			j:   NewJournal(),
			ref: &refJournal{prev: make(map[string]svcCounters)},
			rng: rand.New(rand.NewSource(seed)),
			cum: make(map[string][3]uint64),
		}
		p.compare(t, fmt.Sprintf("seed %d, empty", seed))
		order := slices.Clone(testServices)
		const polls = 700
		for poll := range polls {
			at := time.Duration(poll) * 5 * time.Second
			p.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			for _, s := range order[:1+p.rng.Intn(len(order))] {
				p.sample(at, s)
			}
			for range p.rng.Intn(7) {
				p.decision(at)
			}
			if p.rng.Intn(20) == 0 {
				p.event(at)
			}
			if poll%175 == 0 || poll == polls-1 {
				p.compare(t, fmt.Sprintf("seed %d, poll %d", seed, poll))
			}
		}
		if n := p.j.NumDecisions(); n <= chunkLen || p.j.samples.n <= chunkLen {
			t.Fatalf("seed %d: %d decisions and %d samples fit in one chunk", seed, n, p.j.samples.n)
		}
	}
}

// pointerPath returns the path of the first field of t the collector
// would have to scan (a string, slice, map, pointer, interface, channel or
// func), or "" when t holds none.
func pointerPath(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
		reflect.Interface, reflect.Chan, reflect.Func:
		return path + " (" + t.Kind().String() + ")"
	case reflect.Array:
		return pointerPath(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestJournalRecordsHoldNoPointers pins the journal's storage layout and
// growth: the stored record types hold nothing the collector scans, and
// journaling 10,000 decisions and 10,000 samples allocates one chunk per
// chunkLen records plus a small constant, in both allocations and bytes.
func TestJournalRecordsHoldNoPointers(t *testing.T) {
	for _, rec := range []any{decisionRec{}, sampleRec{}} {
		typ := reflect.TypeOf(rec)
		if p := pointerPath(typ, typ.Name()); p != "" {
			t.Errorf("stored record field %s holds a pointer", p)
		}
	}
	if size := unsafe.Sizeof(decisionRec{}); size > 96 {
		t.Errorf("decisionRec is %d bytes, want at most 96", size)
	}
	if size := unsafe.Sizeof(sampleRec{}); size > 72 {
		t.Errorf("sampleRec is %d bytes, want at most 72", size)
	}

	const n = 10000
	fill := func() *Journal {
		j := NewJournal()
		api, api0, node1 := j.Intern("api"), j.Intern("api-0"), j.Intern("node-1")
		for i := range n {
			at := time.Duration(i) * time.Second
			j.DecisionFor(api, api0, node1, Decision{At: at, Kind: KindVertical,
				Alloc: resources.Vector{CPU: 1}, Outcome: OutcomeApplied})
			j.SampleFor(at, api, 1, 1, 0.5, 0, uint64(i), 0, at)
		}
		return j
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j := fill()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(j)

	// The constant covers the journal, its name table and the chunk lists.
	const extraAllocs, extraBytes = 24, 32 << 10
	chunksEach := (n + chunkLen - 1) / chunkLen
	maxAllocs := uint64(2*chunksEach + extraAllocs)
	maxBytes := uint64(chunksEach)*chunkLen*uint64(unsafe.Sizeof(decisionRec{})+unsafe.Sizeof(sampleRec{})) + extraBytes
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d decisions and %d samples: %d allocations (limit %d), %d bytes (limit %d)",
		n, n, allocs, maxAllocs, bytes, maxBytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("journaling exceeded its allocation bound")
	}
}
