package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// sparkRunes is the 8-level unicode bar set used for inline charts.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-width unicode bar chart. Longer
// inputs are downsampled by bucket mean; shorter inputs render one bar per
// value. Bars scale from the series minimum to its maximum; a flat series
// renders as a run of low bars.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	if len(values) > width {
		buckets := make([]float64, width)
		for b := range buckets {
			lo := b * len(values) / width
			hi := (b + 1) * len(values) / width
			if hi <= lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range values[lo:hi] {
				sum += v
			}
			buckets[b] = sum / float64(hi-lo)
		}
		values = buckets
	}
	min, max := values[0], values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// sparkWidth is the chart width used throughout the rendered report.
const sparkWidth = 48

// timelineRows caps the decision-timeline table per run; the full log is in
// the JSONL artifact.
const timelineRows = 40

// trajectoryServices caps how many per-service failure trajectories a run
// section lists.
const trajectoryServices = 5

// Slug returns a filesystem- and anchor-friendly name for a run.
func Slug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(name) {
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

// seriesRow is one aggregated cluster-wide series for the report's chart
// table.
type seriesRow struct {
	label  string
	unit   string
	values []float64
}

// clusterSeries folds the per-service samples into cluster-wide series, one
// point per distinct sample time.
func clusterSeries(j *Journal) []seriesRow {
	type agg struct {
		replicas  float64
		shares    float64
		net       float64
		completed uint64
		failed    uint64
		latSum    time.Duration
	}
	var times []time.Duration
	byTime := make(map[time.Duration]*agg)
	j.EachSample(func(s Sample) bool {
		a, ok := byTime[s.At]
		if !ok {
			a = &agg{}
			byTime[s.At] = a
			times = append(times, s.At)
		}
		a.replicas += float64(s.Replicas)
		a.shares += s.CPUShares
		a.net += s.NetMbps
		a.completed += s.IntervalCompleted
		a.failed += s.IntervalFailed
		a.latSum += s.IntervalMean * time.Duration(s.IntervalCompleted)
		return true
	})
	if len(times) == 0 {
		return nil
	}
	rows := []seriesRow{
		{label: "replicas (total)", unit: ""},
		{label: "cpu-shares (cores)", unit: ""},
		{label: "NIC utilisation", unit: "Mbps"},
		{label: "interval mean response", unit: "ms"},
		{label: "interval failure rate", unit: "%"},
	}
	for _, t := range times {
		a := byTime[t]
		var meanMs, failPct float64
		if a.completed > 0 {
			meanMs = float64(a.latSum/time.Duration(a.completed)) / float64(time.Millisecond)
		}
		if total := a.completed + a.failed; total > 0 {
			failPct = 100 * float64(a.failed) / float64(total)
		}
		rows[0].values = append(rows[0].values, a.replicas)
		rows[1].values = append(rows[1].values, a.shares)
		rows[2].values = append(rows[2].values, a.net)
		rows[3].values = append(rows[3].values, meanMs)
		rows[4].values = append(rows[4].values, failPct)
	}
	return rows
}

// minMeanMax summarises one series for the chart table.
func minMeanMax(vals []float64) (min, mean, max float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	min, max = vals[0], vals[0]
	var sum float64
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	return min, sum / float64(len(vals)), max
}

// RenderReport renders the Markdown run report for a batch of runs.
// generatedBy is the exact command line to reproduce the artifacts; it is
// quoted in the preamble so reports are self-describing.
func RenderReport(generatedBy string, runs []RunReport) string {
	var b strings.Builder
	b.WriteString("# HyScale run report\n\n")
	if generatedBy != "" {
		fmt.Fprintf(&b, "Generated by `%s`. Decision logs are under `decisions/`, "+
			"per-service time series under `series/`; both are byte-identical "+
			"for any `-parallel` worker count.\n\n", generatedBy)
	}

	b.WriteString("## Run index\n\n")
	b.WriteString("| run | algorithm | requests | failed % | mean | p95 | decisions |\n")
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, r := range runs {
		fmt.Fprintf(&b, "| [%s](#%s) | %s | %d | %.2f | %s | %s | %d |\n",
			r.Name, Slug(r.Name), algoLabel(r.Algorithm), r.Summary.Requests,
			r.Summary.FailedPercent(), fmtMs(r.Summary.MeanLatency),
			fmtMs(r.Summary.P95Latency), r.Journal.NumDecisions())
	}
	b.WriteString("\n")

	for i := range runs {
		renderRun(&b, runs[i])
	}
	return b.String()
}

// algoLabel renders an algorithm name, with a placeholder for algorithm-less
// runs (pinned microbenchmarks).
func algoLabel(a string) string {
	if a == "" {
		return "(none)"
	}
	return a
}

func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.0f ms", float64(d)/float64(time.Millisecond))
}

// renderRun renders one run's section: summary, cluster-wide sparkline
// charts, the worst per-service failure trajectories, and the decision
// timeline.
func renderRun(b *strings.Builder, r RunReport) {
	fmt.Fprintf(b, "## %s\n\n", r.Name)
	fmt.Fprintf(b, "algorithm `%s` · seed %d · horizon %s · artifacts `decisions/%s.jsonl`, `series/%s.csv`\n\n",
		algoLabel(r.Algorithm), r.Seed, r.Duration, Slug(r.Name), Slug(r.Name))
	s := r.Summary
	fmt.Fprintf(b, "requests %d · completed %d · **failed %.2f %%** (removal %.2f %%, connection %.2f %%) · mean %s · p95 %s\n\n",
		s.Requests, s.Completed, s.FailedPercent(), s.RemovalFailedPercent(),
		s.ConnectionFailedPercent(), fmtMs(s.MeanLatency), fmtMs(s.P95Latency))
	// The run's non-zero metrics, by the text sinks' rule (TextLines).
	if lines := TextLines(r.Metrics); len(lines) > 0 {
		fmt.Fprintf(b, "control plane: %s\n\n", strings.Join(lines, " · "))
	}

	if rows := clusterSeries(r.Journal); len(rows) > 0 {
		b.WriteString("### Cluster time series\n\n")
		b.WriteString("| series | trajectory | min | mean | max |\n")
		b.WriteString("|---|---|---|---|---|\n")
		for _, row := range rows {
			min, mean, max := minMeanMax(row.values)
			unit := row.unit
			if unit != "" {
				unit = " " + unit
			}
			fmt.Fprintf(b, "| %s | `%s` | %s%s | %s%s | %s%s |\n",
				row.label, Sparkline(row.values, sparkWidth),
				fmtF(min), unit, fmtF(mean), unit, fmtF(max), unit)
		}
		b.WriteString("\n")
		renderTrajectories(b, r.Journal)
	}
	renderEvents(b, r.Journal)
	renderTimeline(b, r)
}

// eventRows caps the self-healing event table per run.
const eventRows = 40

// renderEvents renders the self-healing event log: detector transitions,
// reconcile steps and monitor restarts, in simulated-time order.
func renderEvents(b *strings.Builder, j *Journal) {
	events := j.Events()
	if len(events) == 0 {
		return
	}
	b.WriteString("### Self-healing events\n\n")
	b.WriteString("| t | event | node | service | container | detail |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	n := len(events)
	if n > eventRows {
		n = eventRows
	}
	for _, e := range events[:n] {
		fmt.Fprintf(b, "| %ss | %s | %s | %s | %s | %s |\n",
			secs(e.At), e.Kind, e.Node, e.Service, e.Container, e.Detail)
	}
	if rest := len(events) - n; rest > 0 {
		fmt.Fprintf(b, "\n… %d more self-healing events.\n", rest)
	}
	b.WriteString("\n")
}

// renderTrajectories lists the services with the highest final cumulative
// failure percentage, each with its interval-failure-rate sparkline — the
// per-service causal stories (who collapsed, and when).
func renderTrajectories(b *strings.Builder, j *Journal) {
	type svcTraj struct {
		name     string
		finalPct float64
		rates    []float64
	}
	// One pass groups the samples by service, in first-seen order.
	var trajs []svcTraj
	index := make(map[string]int)
	j.EachSample(func(s Sample) bool {
		k, ok := index[s.Service]
		if !ok {
			k = len(trajs)
			index[s.Service] = k
			trajs = append(trajs, svcTraj{name: s.Service})
		}
		t := &trajs[k]
		t.finalPct = s.CumFailedPct
		t.rates = append(t.rates, s.IntervalFailedPct())
		return true
	})
	sort.SliceStable(trajs, func(i, k int) bool { return trajs[i].finalPct > trajs[k].finalPct })
	if len(trajs) == 0 || trajs[0].finalPct == 0 {
		return
	}
	n := len(trajs)
	if n > trajectoryServices {
		n = trajectoryServices
	}
	b.WriteString("### Per-service failure-rate trajectories (worst services)\n\n")
	b.WriteString("| service | final failed % | interval failure rate over time |\n")
	b.WriteString("|---|---|---|\n")
	for _, t := range trajs[:n] {
		fmt.Fprintf(b, "| %s | %.2f | `%s` |\n", t.name, t.finalPct, Sparkline(t.rates, sparkWidth))
	}
	b.WriteString("\n")
}

// renderTimeline renders the first timelineRows decisions plus the outcome
// tally, pointing at the JSONL artifact for the remainder.
func renderTimeline(b *strings.Builder, r RunReport) {
	j := r.Journal
	total := j.NumDecisions()
	if total == 0 {
		return
	}
	b.WriteString("### Decision timeline\n\n")
	counts := j.OutcomeCounts()
	var parts []string
	for _, o := range []Outcome{OutcomeApplied, OutcomeRequeued, OutcomeAbandoned,
		OutcomeRejected, OutcomeOvertaken, OutcomeMoot} {
		if n := counts[o]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s %d", o, n))
		}
	}
	fmt.Fprintf(b, "%d decisions: %s\n\n", total, strings.Join(parts, " · "))
	b.WriteString("| t | service | action | target | alloc (cpu/memMB/Mbps) | observed (cpu/memMB/Mbps ×replicas) | attempt | outcome |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	n := min(total, timelineRows)
	for i := range n {
		d := j.decision(i)
		target := d.Container
		if target == "" {
			target = d.Node
		}
		fmt.Fprintf(b, "| %ss | %s | %s | %s | %s/%s/%s | %s/%s/%s ×%d | %d | %s |\n",
			secs(d.At), d.Service, d.Kind, target,
			fmtF(d.Alloc.CPU), fmtF(d.Alloc.MemMB), fmtF(d.Alloc.NetMbps),
			fmtF(d.Observed.CPU), fmtF(d.Observed.MemMB), fmtF(d.Observed.NetMbps),
			d.Observed.Replicas, d.Attempt, d.Outcome)
	}
	if rest := total - n; rest > 0 {
		fmt.Fprintf(b, "\n… %d more decisions in `decisions/%s.jsonl`.\n", rest, Slug(r.Name))
	}
	b.WriteString("\n")
}
