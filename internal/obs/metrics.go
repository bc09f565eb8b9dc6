package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Type is a run metric's Prometheus type.
type Type string

// The two metric types a run reports.
const (
	TypeCounter Type = "counter"
	TypeGauge   Type = "gauge"
)

// Series is one sample of a run metric. A run's metrics are one ordered
// list of series (platform.World.Metrics); consecutive series sharing a
// Name form a family, whose Type and Help every member repeats. Every sink
// renders that list: WritePrometheus for /metrics, TextLines for
// hyscale-sim's summary and the -report control-plane line.
type Series struct {
	Name string
	Type Type
	Help string
	// Labels is the rendered label set without braces, e.g.
	// `zone="0",kind="vertical"`; empty for an unlabelled family.
	Labels string
	Value  float64
}

// Lookup returns the value of the series with this name and exactly these
// labels, and whether series holds one.
func Lookup(series []Series, name, labels string) (float64, bool) {
	for _, s := range series {
		if s.Name == name && s.Labels == labels {
			return s.Value, true
		}
	}
	return 0, false
}

// WritePrometheus writes series in the Prometheus text exposition format:
// each family's # HELP and # TYPE lines once, before its first sample.
func WritePrometheus(w io.Writer, series []Series) error {
	bw := bufio.NewWriter(w)
	for i, s := range series {
		if i == 0 || s.Name != series[i-1].Name {
			bw.WriteString("# HELP " + s.Name + " " + s.Help + "\n")
			bw.WriteString("# TYPE " + s.Name + " " + string(s.Type) + "\n")
		}
		bw.WriteString(s.Name)
		if s.Labels != "" {
			bw.WriteString("{" + s.Labels + "}")
		}
		bw.WriteString(" " + strconv.FormatFloat(s.Value, 'f', -1, 64) + "\n")
	}
	return bw.Flush()
}

// TextLines renders series for the text sinks: one line per family that
// has a non-zero sample, naming the family and then its non-zero samples
// ("hyscale_scaling_actions_total kind="vertical" 4, kind="scale_out" 2").
// Families keyed by node or service (first label node= or service=) are
// left to /metrics, because their size grows with the cluster.
func TextLines(series []Series) []string {
	var lines []string
	var b strings.Builder
	for i, s := range series {
		if s.Value != 0 && !strings.HasPrefix(s.Labels, "node=") && !strings.HasPrefix(s.Labels, "service=") {
			if b.Len() == 0 {
				b.WriteString(s.Name)
			} else {
				b.WriteByte(',')
			}
			if s.Labels != "" {
				b.WriteString(" " + s.Labels)
			}
			b.WriteString(" " + fmtF(s.Value))
		}
		if (i == len(series)-1 || series[i+1].Name != s.Name) && b.Len() > 0 {
			lines = append(lines, b.String())
			b.Reset()
		}
	}
	return lines
}
