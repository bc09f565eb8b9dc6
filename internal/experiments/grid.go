package experiments

import (
	"fmt"
	"slices"
	"time"

	"hyscale/internal/obs"
	"hyscale/internal/platform"
	"hyscale/internal/runner"
)

// Grid is the material behind one experiment table. Its axes are labelled
// dimensions — algorithm, fault rate, defense level, workload — whose
// labels expand to cells; each cell compiles to one runner.RunSpec, and each
// executed cell becomes one Row. The axis labels are the table's leading
// columns; the grid's columns render the rest from each row's result. Every
// experiment returns Grids, so a caller reads every run — its result and
// metric list, wall-clock Elapsed and, when observed, its journal — from
// them.
type Grid struct {
	// Title names the paper artefact or extension table.
	Title string
	// Axes names each label position, outermost first.
	Axes []string
	// Rows holds one executed cell per row, in cell order.
	Rows []Row

	columns []column
	// table, when set, renders the grid in place of its labels and columns:
	// for a table whose rows combine cells (Fig. 2's overhead row, the Fig. 3
	// sweep's ratios) or come from no run at all (Fig. 9).
	table func(g *Grid) *Table
}

// Row is one executed cell: its labels, one per axis, and the run's result.
// The result's World is dropped — a paper-sized -all batch must not retain
// every world — and its Metrics keep the world's metric list.
type Row struct {
	Labels []string
	runner.Result
}

// column is one rendered table column after the axis labels. A column
// computed from the run's metric list names the series it reads.
type column struct {
	header string
	render func(r *Row) string
	reads  []seriesKey
}

// seriesKey names one series of a run's metric list: its family and its
// rendered labels (see obs.Series).
type seriesKey struct{ name, labels string }

// cellf is a column that formats one value of each row with a fmt verb.
func cellf[T any](header, format string, value func(r *Row) T) column {
	return column{header: header, render: func(r *Row) string { return fmt.Sprintf(format, value(r)) }}
}

// seriesColumn renders one series of each row's metric list with format.
func seriesColumn(header, name, labels string, format func(v float64) string) column {
	return column{
		header: header,
		render: func(r *Row) string { return format(r.series(name, labels)) },
		reads:  []seriesKey{{name, labels}},
	}
}

// seriesf is a series column formatted with a fmt verb. A counter renders
// with "%.0f": every counter is below 2^53, so it prints as its integer.
func seriesf(header, verb, name, labels string) column {
	return seriesColumn(header, name, labels, func(v float64) string { return fmt.Sprintf(verb, v) })
}

// product expands axes' labels to cells, the first axis outermost.
func product(axes ...[]string) [][]string {
	cells := [][]string{nil}
	for _, labels := range axes {
		next := make([][]string, 0, len(cells)*len(labels))
		for _, c := range cells {
			for _, l := range labels {
				next = append(next, append(c[:len(c):len(c)], l))
			}
		}
		cells = next
	}
	return cells
}

// axisOf labels an axis with each item's name and returns the lookup from a
// label back to its item.
func axisOf[T any](items []T, name func(T) string) ([]string, map[string]T) {
	labels := make([]string, len(items))
	byLabel := make(map[string]T, len(items))
	for i, it := range items {
		labels[i] = name(it)
		byLabel[labels[i]] = it
	}
	return labels, byLabel
}

// run compiles every cell, fans the specs through runner.Execute with the
// experiment's parallelism and keeps one row per cell, in cell order. With
// Options.Observe every run is journaled.
func (g *Grid) run(cells [][]string, compile func(labels []string) runner.RunSpec, opts Options) (*Grid, error) {
	specs := make([]runner.RunSpec, len(cells))
	for i, c := range cells {
		specs[i] = compile(c)
		if opts.Observe {
			specs[i].Observe = true
		}
	}
	results, err := runner.Execute(opts.Parallel, opts.Seed, specs)
	if err != nil {
		return nil, err
	}
	g.Rows = make([]Row, len(results))
	for i, r := range results {
		g.Rows[i] = Row{Labels: cells[i], Result: r}
		g.Rows[i].World = nil
	}
	return g, nil
}

// Reports returns one obs.RunReport per journaled row, in row order: every
// row when the grid ran with Options.Observe, none otherwise.
func (g *Grid) Reports() []obs.RunReport {
	var reports []obs.RunReport
	for _, r := range g.Rows {
		if r.Journal == nil {
			continue
		}
		reports = append(reports, obs.RunReport{
			Name:      r.Spec.Name,
			Label:     r.Spec.RowLabel(),
			Algorithm: r.Spec.Algorithm,
			Seed:      r.Spec.Seed,
			Duration:  r.Spec.Duration,
			Summary:   r.Summary,
			Journal:   r.Journal,
			Metrics:   r.Metrics,
		})
	}
	return reports
}

// requireCompleted fails a run grid in which some row completed no request
// — a §III table whose means would be meaningless.
func requireCompleted(g *Grid, err error) (*Grid, error) {
	if err != nil {
		return nil, err
	}
	for _, r := range g.Rows {
		if r.Summary.Completed == 0 {
			return nil, fmt.Errorf("%s: no requests completed", r.Spec.Name)
		}
	}
	return g, nil
}

// Row returns the row with exactly these labels, or nil.
func (g *Grid) Row(labels ...string) *Row {
	for i := range g.Rows {
		if slices.Equal(g.Rows[i].Labels, labels) {
			return &g.Rows[i]
		}
	}
	return nil
}

// Speedup returns the mean-response-time speedup of row b over row a
// (a_mean / b_mean), the paper's headline metric, on a one-axis grid; 0 when
// either row is missing or b has no latency.
func (g *Grid) Speedup(a, b string) float64 {
	ra, rb := g.Row(a), g.Row(b)
	if ra == nil || rb == nil || rb.Summary.MeanLatency <= 0 {
		return 0
	}
	return float64(ra.Summary.MeanLatency) / float64(rb.Summary.MeanLatency)
}

// Table renders the grid: through its table hook when it has one,
// otherwise as its rows.
func (g *Grid) Table() *Table {
	if g.table != nil {
		return g.table(g)
	}
	return g.render()
}

// render lays the rows out as a table: the axis labels, then one cell per
// column.
func (g *Grid) render() *Table {
	t := &Table{Title: g.Title, Columns: slices.Clone(g.Axes)}
	for _, c := range g.columns {
		t.Columns = append(t.Columns, c.header)
	}
	for i := range g.Rows {
		r := &g.Rows[i]
		cells := slices.Clone(r.Labels)
		for _, c := range g.columns {
			cells = append(cells, c.render(r))
		}
		t.AddRow(cells...)
	}
	return t
}

// fmtDur renders a latency for a table, to the millisecond.
func fmtDur(d time.Duration) string { return d.Round(time.Millisecond).String() }

// Columns shared by several tables.
var (
	meanColumn   = column{header: "mean response", render: func(r *Row) string { return fmtDur(r.Summary.MeanLatency) }}
	p95Column    = column{header: "p95", render: func(r *Row) string { return fmtDur(r.Summary.P95Latency) }}
	failedColumn = cellf("failed %", "%.2f", func(r *Row) float64 { return r.Summary.FailedPercent() })

	machineHoursColumn = cellf("machine-hours", "%.2f", func(r *Row) float64 { return r.Cost.MachineHours })
	scaleOutsColumn    = seriesf("scale-outs", "%.0f", "hyscale_scaling_actions_total", `kind="scale_out"`)
	scaleInsColumn     = seriesf("scale-ins", "%.0f", "hyscale_scaling_actions_total", `kind="scale_in"`)

	reconvergeColumn = seriesColumn("reconverge", platform.SeriesReconverge, "", fmtRecovery)
)

// availabilityColumn renders the run's availability under header.
func availabilityColumn(header string) column {
	c := cellf(header, "%.2f", (*Row).availability)
	c.reads = []seriesKey{{platform.SeriesAvailabilityUp, ""}, {platform.SeriesAvailabilitySampled, ""}}
	return c
}

// availability is the run's share of service-seconds up, in percent: 100
// on a world that never sampled its health.
func (r *Row) availability() float64 {
	sampled := r.series(platform.SeriesAvailabilitySampled, "")
	if sampled == 0 {
		return 100
	}
	return 100 * r.series(platform.SeriesAvailabilityUp, "") / sampled
}

// series reads the series with this family name and these labels from the
// run's metric list; 0 when the world did not publish it, as a zoneless
// world publishes no evacuation counters and a world that cannot fail no
// health series.
func (r *Row) series(name, labels string) float64 {
	v, _ := obs.Lookup(r.Metrics, name, labels)
	return v
}

// fmtRecovery renders a recovery time for a table: "-" for never.
func fmtRecovery(seconds float64) string {
	if seconds < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0fs", seconds)
}
