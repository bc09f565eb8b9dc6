package experiments

import (
	"fmt"
	"slices"

	"hyscale/internal/runner"
)

// Grid is the material behind one experiment table. Its axes are labelled
// dimensions — algorithm, fault rate, defense level, workload — whose
// labels expand to cells; each cell compiles to one runner.RunSpec, and each
// executed cell becomes one Row. The axis labels are the table's leading
// columns; the grid's columns render the rest from each row's result.
type Grid struct {
	// Title names the paper artefact or extension table.
	Title string
	// Axes names each label position, outermost first.
	Axes []string
	// Rows holds one executed cell per row, in cell order.
	Rows []Row

	columns []column
}

// Row is one executed cell: its labels, one per axis, and the run's result.
// The result's World is dropped — a paper-sized -all batch must not retain
// every world.
type Row struct {
	Labels []string
	runner.Result
}

// column is one rendered table column after the axis labels.
type column struct {
	header string
	render func(r *Row) string
}

// cellf is a column that formats one value of each row with a fmt verb.
func cellf[T any](header, format string, value func(r *Row) T) column {
	return column{header, func(r *Row) string { return fmt.Sprintf(format, value(r)) }}
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

// run compiles every cell, fans the specs through the executor and keeps one
// row per cell, in cell order.
func (g *Grid) run(cells [][]string, compile func(labels []string) runner.RunSpec, opts Options) (*Grid, error) {
	specs := make([]runner.RunSpec, len(cells))
	for i, c := range cells {
		specs[i] = compile(c)
	}
	results, err := execute(specs, opts)
	if err != nil {
		return nil, err
	}
	g.Rows = make([]Row, len(results))
	for i, r := range results {
		r.World = nil
		g.Rows[i] = Row{Labels: cells[i], Result: r}
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

// Table renders the grid with its own columns.
func (g *Grid) Table() *Table { return g.render(g.columns) }

// render lays the rows out as a table: the axis labels, then one cell per
// column.
func (g *Grid) render(cols []column) *Table {
	t := &Table{Title: g.Title, Columns: slices.Clone(g.Axes)}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.header)
	}
	for i := range g.Rows {
		r := &g.Rows[i]
		cells := slices.Clone(r.Labels)
		for _, c := range cols {
			cells = append(cells, c.render(r))
		}
		t.AddRow(cells...)
	}
	return t
}

// Columns shared by several tables.
var (
	meanColumn   = column{"mean response", func(r *Row) string { return fmtDur(r.Summary.MeanLatency) }}
	p95Column    = column{"p95", func(r *Row) string { return fmtDur(r.Summary.P95Latency) }}
	failedColumn = cellf("failed %", "%.2f", func(r *Row) float64 { return r.Summary.FailedPercent() })

	machineHoursColumn = cellf("machine-hours", "%.2f", func(r *Row) float64 { return r.Cost.MachineHours })
	scaleOutsColumn    = cellf("scale-outs", "%d", func(r *Row) uint64 { return r.Actions.ScaleOuts })
	scaleInsColumn     = cellf("scale-ins", "%d", func(r *Row) uint64 { return r.Actions.ScaleIns })

	reconvergeColumn = column{"reconverge", func(r *Row) string { return fmtRecovery(r.Extra[extraReconverge]) }}
)

// availabilityColumn renders the health probe's availability under header.
func availabilityColumn(header string) column {
	return cellf(header, "%.2f", func(r *Row) float64 { return r.Extra[extraAvailability] })
}
