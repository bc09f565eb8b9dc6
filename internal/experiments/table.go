// Package experiments contains one reproducible harness per table and
// figure in the paper's evaluation (§III and §VI) and per extension table.
// Each experiment compiles its runs to runner.RunSpecs and returns a result
// that renders itself as the same rows/series the paper reports; most are
// one Grid (grid.go), and registry.go maps every hyscale-bench -exp id to
// its tables. The package is the single source of truth mapping paper
// artefacts to code — see DESIGN.md's per-experiment index.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"hyscale/internal/obs"
	"hyscale/internal/runner"
)

// Table is a rendered experiment artefact: the rows behind one paper figure
// or table.
type Table struct {
	// Title names the paper artefact, e.g. "Figure 2: ...".
	Title string
	// Columns are the header labels.
	Columns []string
	// Rows hold pre-formatted cells; each row must have len(Columns) cells.
	Rows [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders an aligned plain-text table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown, used when
// regenerating EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes only where needed),
// with the title as a comment line — the format cmd/hyscale-bench's -csv
// flag writes for plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	writeRec := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRec(t.Columns)
	for _, row := range t.Rows {
		writeRec(row)
	}
	return b.String()
}

// Slug returns a filesystem-friendly name derived from the title.
func (t *Table) Slug() string {
	s := strings.ToLower(t.Title)
	var b strings.Builder
	dash := false
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

// Options tunes experiment size so `go test -bench` stays quick while
// cmd/hyscale-bench can run paper-sized experiments.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Scale multiplies experiment durations (1.0 = paper-sized). Bench
	// defaults use 0.2.
	Scale float64
	// Parallel bounds how many runs execute concurrently (<=0 uses
	// GOMAXPROCS). Results are identical for any value: every run is an
	// isolated world with a seed fixed at compile time.
	Parallel int
	// Observe journals every run's scaling decisions and per-service time
	// series (see internal/obs); TakeArtifacts drains the collected
	// run reports. cmd/hyscale-bench -report sets this.
	Observe bool
}

// DefaultOptions returns paper-sized settings.
func DefaultOptions() Options { return Options{Seed: 1, Scale: 1.0} }

func (o Options) scaled() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

var (
	timingsMu sync.Mutex
	timings   []runner.Timing
	artifacts []obs.RunReport
)

// execute fans the compiled specs through the runner with the experiment's
// parallelism, accumulating per-run wall-clock timings for TakeTimings and —
// when Options.Observe is set — per-run journals for TakeArtifacts.
func execute(specs []runner.RunSpec, opts Options) ([]runner.Result, error) {
	if opts.Observe {
		for i := range specs {
			specs[i].Observe = true
		}
	}
	results, ts, err := runner.Execute(opts.Parallel, opts.Seed, specs)
	timingsMu.Lock()
	timings = append(timings, ts...)
	if opts.Observe {
		// Keep only the lightweight journal + summary, not the Result's
		// *World — a paper-sized -all batch must not retain every world.
		for _, r := range results {
			if r.Journal == nil {
				continue
			}
			artifacts = append(artifacts, obs.RunReport{
				Name:      r.Spec.Name,
				Label:     r.Spec.RowLabel(),
				Algorithm: r.Spec.Algorithm,
				Seed:      r.Spec.Seed,
				Duration:  r.Spec.Duration,
				Summary:   r.Summary,
				Journal:   r.Journal,
				Counters:  runCounters(r),
			})
		}
	}
	timingsMu.Unlock()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runCounters flattens one run's control-plane counters — hardening,
// fault-injection fallout and self-healing recovery — into the ordered
// name/value pairs the Markdown report renders. The order is fixed so report
// bytes stay deterministic.
func runCounters(r runner.Result) []obs.Counter {
	a, rec := r.Actions, r.Recovery
	out := []obs.Counter{
		{Name: "retries", Value: a.Retries},
		{Name: "abandoned actions", Value: a.AbandonedActions},
		{Name: "stale snapshots", Value: a.StaleSnapshots},
		{Name: "placement failures", Value: a.PlacementFailures},
		{Name: "pending retries (end of run)", Value: uint64(r.PendingRetries)},
		{Name: "monitor crash periods", Value: r.MonitorCrashes},
		{Name: "nodes suspected", Value: rec.Suspected},
		{Name: "nodes declared dead", Value: rec.DeclaredDead},
		{Name: "nodes recovered", Value: rec.Recovered},
		{Name: "replicas lost", Value: rec.ReplicasLost},
		{Name: "replicas replaced", Value: rec.Replaced},
		{Name: "replicas re-adopted", Value: rec.Readopted},
		{Name: "stale replicas drained", Value: rec.StaleDrained},
		{Name: "reconciles cancelled", Value: rec.ReconcileCancelled},
		{Name: "checkpoint restores", Value: rec.CheckpointRestores},
		{Name: "cold restarts", Value: rec.ColdRestarts},
	}
	// Call-graph runs append the cascade-defense counters; runs without a
	// graph keep the exact pre-resilience counter list, so existing report
	// artifacts are byte-identical.
	if r.Cascade != nil && r.Resilience != nil {
		cs, rc := r.Cascade, r.Resilience
		out = append(out,
			obs.Counter{Name: "roots generated", Value: cs.RootGenerated},
			obs.Counter{Name: "roots completed", Value: cs.RootCompleted},
			obs.Counter{Name: "roots shed", Value: cs.RootShed},
			obs.Counter{Name: "roots deadline-exceeded", Value: cs.RootDeadline},
			obs.Counter{Name: "roots failed", Value: cs.RootFailed},
			obs.Counter{Name: "requests shed", Value: rc.Shed},
			obs.Counter{Name: "call retries issued", Value: rc.Retries},
			obs.Counter{Name: "call retries denied (budget)", Value: rc.RetriesDenied},
			obs.Counter{Name: "call deadline misses", Value: rc.DeadlineExceeded},
			obs.Counter{Name: "breaker short-circuits", Value: rc.ShortCircuited},
			obs.Counter{Name: "breaker opens", Value: rc.BreakerOpens},
		)
	}
	return out
}

// TakeTimings drains the per-run wall-clock timings accumulated since the
// last call — cmd/hyscale-bench prints them in its report footer. Timings
// are measurement metadata: they never appear in experiment tables, so
// rendered reports stay byte-identical across parallelism settings.
func TakeTimings() []runner.Timing {
	timingsMu.Lock()
	defer timingsMu.Unlock()
	out := timings
	timings = nil
	return out
}

// TakeArtifacts drains the run reports journaled since the last call (empty
// unless experiments ran with Options.Observe). Reports come back in spec
// order per experiment, so a -report directory's artifact set is
// deterministic for any parallelism.
func TakeArtifacts() []obs.RunReport {
	timingsMu.Lock()
	defer timingsMu.Unlock()
	out := artifacts
	artifacts = nil
	return out
}
