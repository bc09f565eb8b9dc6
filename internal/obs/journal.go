package obs

import (
	"time"

	"hyscale/internal/resources"
)

// Name identifies a service, container or node name in a journal's name
// table: each name is interned once and records hold its Name. The zero
// Name stands for the empty string.
type Name uint32

// chunkLen is the number of records one storage chunk holds.
const chunkLen = 1024

// chunks is an append-only record sequence stored in fixed-size chunks:
// growing it allocates one new chunk and never copies or clears the old
// ones. Record types hold no pointers, so the collector never scans a chunk.
type chunks[T any] struct {
	full []*[chunkLen]T
	n    int
}

// add appends v.
func (c *chunks[T]) add(v T) {
	if c.n == len(c.full)*chunkLen {
		c.full = append(c.full, new([chunkLen]T))
	}
	c.full[c.n/chunkLen][c.n%chunkLen] = v
	c.n++
}

// at returns record i.
func (c *chunks[T]) at(i int) *T { return &c.full[i/chunkLen][i%chunkLen] }

// code is a Kind or Outcome stored as its index in kindCodes or
// outcomeCodes. oddCode marks a value outside those tables: the journal
// keeps that decision's Kind and Outcome strings in Journal.odd.
type code uint8

const oddCode code = 255

var (
	kindCodes    = [...]Kind{"", KindVertical, KindScaleOut, KindScaleIn}
	outcomeCodes = [...]Outcome{"", OutcomeApplied, OutcomeRequeued, OutcomeAbandoned,
		OutcomeRejected, OutcomeOvertaken, OutcomeMoot}
)

// codeOf returns v's index in table, or oddCode when v is not there.
func codeOf[T ~string](table []T, v T) code {
	for i, t := range table {
		if t == v {
			return code(i)
		}
	}
	return oddCode
}

// decisionRec is a Decision as the journal stores it: names as Names, Kind
// and Outcome as codes. 96 bytes, no pointers.
type decisionRec struct {
	at                       time.Duration
	alloc                    resources.Vector
	observed                 ServiceObserved
	attempt                  int
	service, container, node Name
	kind, outcome            code
}

// oddDecision holds the Kind and Outcome of a decision whose record stores
// oddCode for either.
type oddDecision struct {
	kind    Kind
	outcome Outcome
}

// sampleRec is one Sample call as the journal stores it: the service as a
// Name and the cumulative counters as given. A Sample's interval fields are
// derived on read, against the service's previous record. 72 bytes, no
// pointers.
type sampleRec struct {
	at                           time.Duration
	replicas                     int
	cpuShares, cpuUsage, netMbps float64
	completed, failed            uint64
	totalLat                     time.Duration
	service                      Name
}

// svcCounters are a service's cumulative counters at its previous sample,
// the base of the next sample's interval deltas.
type svcCounters struct {
	completed uint64
	failed    uint64
	totalLat  time.Duration
}

// sample expands r into the Sample it reports, taking the interval deltas
// against *prev and then advancing *prev to r's counters.
func (r *sampleRec) sample(service string, prev *svcCounters) Sample {
	p := *prev
	s := Sample{
		At:        r.at,
		Service:   service,
		Replicas:  r.replicas,
		CPUShares: r.cpuShares,
		CPUUsage:  r.cpuUsage,
		NetMbps:   r.netMbps,
	}
	if r.completed >= p.completed {
		s.IntervalCompleted = r.completed - p.completed
	}
	if r.failed >= p.failed {
		s.IntervalFailed = r.failed - p.failed
	}
	if s.IntervalCompleted > 0 && r.totalLat >= p.totalLat {
		s.IntervalMean = (r.totalLat - p.totalLat) / time.Duration(s.IntervalCompleted)
	}
	if total := r.completed + r.failed; total > 0 {
		s.CumFailedPct = 100 * float64(r.failed) / float64(total)
	}
	*prev = svcCounters{completed: r.completed, failed: r.failed, totalLat: r.totalLat}
	return s
}

// Journal is one run's decision trace and time series. It is not safe for
// concurrent use (the simulation is single-threaded); every run owns its
// own instance. All methods tolerate a nil receiver, which is the entire
// disabled path.
//
// Decisions and samples are stored as fixed-size, pointer-free records in
// fixed chunks; the accessors expand them into fresh Decision and Sample
// values on every read. Events are kept as given.
type Journal struct {
	decisions chunks[decisionRec]
	samples   chunks[sampleRec]
	events    []Event
	// names is the name table, indexed by Name (names[0] is ""), and ids
	// its inverse.
	names []string
	ids   map[string]Name
	// odd maps a decision's index to its Kind and Outcome when either has
	// no code.
	odd map[int]oddDecision
}

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{names: []string{""}, ids: make(map[string]Name)}
}

// Enabled reports whether the journal is live (non-nil).
func (j *Journal) Enabled() bool { return j != nil }

// Intern returns name's Name, adding it to the name table on first use. A
// producer that journals one name repeatedly interns it once and hands the
// Name to DecisionFor or SampleFor. A nil journal returns 0.
func (j *Journal) Intern(name string) Name {
	if j == nil || name == "" {
		return 0
	}
	if id, ok := j.ids[name]; ok {
		return id
	}
	id := Name(len(j.names))
	j.names = append(j.names, name)
	j.ids[name] = id
	return id
}

// Decision appends one action-attempt record. No-op on a nil journal.
func (j *Journal) Decision(d Decision) {
	service := j.Intern(d.Service)
	container := j.Intern(d.Container)
	j.DecisionFor(service, container, j.Intern(d.Node), d)
}

// DecisionFor is Decision for a producer that holds the Names of the
// decision's service, container and node: the record names those, and
// d.Service, d.Container and d.Node are ignored. A producer that journals
// the same names repeatedly interns each once and keeps its Name, so a
// record costs no name lookup. No-op on a nil journal.
func (j *Journal) DecisionFor(service, container, node Name, d Decision) {
	if j == nil {
		return
	}
	r := decisionRec{
		at:        d.At,
		alloc:     d.Alloc,
		observed:  d.Observed,
		attempt:   d.Attempt,
		service:   service,
		container: container,
		node:      node,
		kind:      codeOf(kindCodes[:], d.Kind),
		outcome:   codeOf(outcomeCodes[:], d.Outcome),
	}
	if r.kind == oddCode || r.outcome == oddCode {
		if j.odd == nil {
			j.odd = make(map[int]oddDecision)
		}
		j.odd[j.decisions.n] = oddDecision{kind: d.Kind, outcome: d.Outcome}
	}
	j.decisions.add(r)
}

// decision expands decision record i.
func (j *Journal) decision(i int) Decision {
	r := j.decisions.at(i)
	d := Decision{
		At:        r.at,
		Service:   j.names[r.service],
		Container: j.names[r.container],
		Node:      j.names[r.node],
		Alloc:     r.alloc,
		Observed:  r.observed,
		Attempt:   r.attempt,
	}
	if r.kind == oddCode || r.outcome == oddCode {
		o := j.odd[i]
		d.Kind, d.Outcome = o.kind, o.outcome
	} else {
		d.Kind, d.Outcome = kindCodes[r.kind], outcomeCodes[r.outcome]
	}
	return d
}

// Event appends one self-healing event record. No-op on a nil journal.
func (j *Journal) Event(e Event) {
	if j == nil {
		return
	}
	j.events = append(j.events, e)
}

// Events returns the journal's self-healing events in emission order (nil
// journal: none).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	return j.events
}

// Sample appends one per-service series point from cumulative counters;
// readers see the interval deltas against the service's previous sample.
// No-op on a nil journal.
func (j *Journal) Sample(at time.Duration, service string, replicas int,
	cpuShares, cpuUsage, netMbps float64,
	completed, failed uint64, totalLat time.Duration) {
	j.SampleFor(at, j.Intern(service), replicas, cpuShares, cpuUsage, netMbps,
		completed, failed, totalLat)
}

// SampleFor is Sample for a producer that holds the service's Name. No-op
// on a nil journal.
func (j *Journal) SampleFor(at time.Duration, service Name, replicas int,
	cpuShares, cpuUsage, netMbps float64,
	completed, failed uint64, totalLat time.Duration) {
	if j == nil {
		return
	}
	j.samples.add(sampleRec{
		at: at, replicas: replicas,
		cpuShares: cpuShares, cpuUsage: cpuUsage, netMbps: netMbps,
		completed: completed, failed: failed, totalLat: totalLat,
		service: service,
	})
}

// NumDecisions returns how many decisions the journal holds.
func (j *Journal) NumDecisions() int {
	if j == nil {
		return 0
	}
	return j.decisions.n
}

// EachDecision calls yield with each decision in emission order, expanded
// from its record, until yield returns false.
func (j *Journal) EachDecision(yield func(Decision) bool) {
	for i := range j.NumDecisions() {
		if !yield(j.decision(i)) {
			return
		}
	}
}

// EachSample calls yield with each series sample in emission order,
// expanded from its record, until yield returns false.
func (j *Journal) EachSample(yield func(Sample) bool) {
	if j == nil || j.samples.n == 0 {
		return
	}
	prev := make([]svcCounters, len(j.names))
	for i := range j.samples.n {
		r := j.samples.at(i)
		if !yield(r.sample(j.names[r.service], &prev[r.service])) {
			return
		}
	}
}

// Decisions returns a fresh slice of the journal's decisions in emission
// order (none: nil).
func (j *Journal) Decisions() []Decision {
	n := j.NumDecisions()
	if n == 0 {
		return nil
	}
	out := make([]Decision, n)
	for i := range out {
		out[i] = j.decision(i)
	}
	return out
}

// Samples returns a fresh slice of the journal's series samples in
// emission order (none: nil).
func (j *Journal) Samples() []Sample {
	if j == nil || j.samples.n == 0 {
		return nil
	}
	out := make([]Sample, 0, j.samples.n)
	j.EachSample(func(s Sample) bool {
		out = append(out, s)
		return true
	})
	return out
}

// Services returns the distinct sampled service names in first-seen order.
func (j *Journal) Services() []string {
	if j == nil {
		return nil
	}
	var names []string
	seen := make([]bool, len(j.names))
	for i := range j.samples.n {
		if id := j.samples.at(i).service; !seen[id] {
			seen[id] = true
			names = append(names, j.names[id])
		}
	}
	return names
}

// OutcomeCounts tallies decisions by outcome.
func (j *Journal) OutcomeCounts() map[Outcome]int {
	if j == nil {
		return nil
	}
	out := make(map[Outcome]int)
	var byCode [len(outcomeCodes)]int
	for i := range j.decisions.n {
		if c := j.decisions.at(i).outcome; c == oddCode {
			out[j.odd[i].outcome]++
		} else {
			byCode[c]++
		}
	}
	for c, n := range byCode {
		if n > 0 {
			out[outcomeCodes[c]] += n
		}
	}
	return out
}
