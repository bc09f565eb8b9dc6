// Package experiments contains one reproducible harness per table and
// figure in the paper's evaluation (§III and §VI) and per extension table.
// Each experiment compiles its runs to runner.RunSpecs and returns a Grid
// (grid.go) that renders itself as the same rows/series the paper reports,
// and registry.go maps every hyscale-bench -exp id to its Grids. The
// package is the single source of truth mapping paper artefacts to code —
// see DESIGN.md's per-experiment index.
package experiments

import (
	"fmt"
	"strings"

	"hyscale/internal/obs"
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
func (t *Table) Slug() string { return obs.Slug(t.Title) }

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
	// series (see internal/obs); each Grid then carries its runs' reports.
	// cmd/hyscale-bench -report sets this.
	Observe bool
}

func (o Options) scaled() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}
