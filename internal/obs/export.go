package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// secs renders a simulated time as seconds with no trailing zeros, the
// timestamp format shared by the JSONL and CSV artifacts.
func secs(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// decisionDTO is the stable wire form of a Decision: field order here is the
// JSONL column order, with the timestamp first.
type decisionDTO struct {
	T float64 `json:"t"`
	Decision
}

// WriteJSONL writes one JSON object per decision, in emission order. The
// encoding is fully deterministic (fixed field order, shortest-float
// numbers), so equal journals produce byte-identical files.
func (j *Journal) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var err error
	j.EachDecision(func(d Decision) bool {
		err = enc.Encode(decisionDTO{T: d.At.Seconds(), Decision: d})
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ParseJSONL reads back a WriteJSONL stream — the validation path for
// report artifacts.
func ParseJSONL(r io.Reader) ([]Decision, error) {
	var out []Decision
	dec := json.NewDecoder(r)
	for dec.More() {
		var d decisionDTO
		if err := dec.Decode(&d); err != nil {
			return nil, fmt.Errorf("obs: decision %d: %w", len(out), err)
		}
		d.Decision.At = time.Duration(d.T * float64(time.Second))
		out = append(out, d.Decision)
	}
	return out, nil
}

// seriesHeader is the CSV column set of WriteSeriesCSV.
const seriesHeader = "t_s,service,replicas,cpu_shares,cpu_usage,net_mbps,interval_completed,interval_failed,interval_mean_ms,interval_failed_pct,cum_failed_pct"

// WriteSeriesCSV writes the per-service time series in emission order
// (poll-major, service registration order within a poll). Deterministic for
// equal journals.
func (j *Journal) WriteSeriesCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, seriesHeader); err != nil {
		return err
	}
	var err error
	j.EachSample(func(s Sample) bool {
		_, err = fmt.Fprintf(bw, "%s,%s,%d,%s,%s,%s,%d,%d,%s,%s,%s\n",
			secs(s.At), s.Service, s.Replicas,
			fmtF(s.CPUShares), fmtF(s.CPUUsage), fmtF(s.NetMbps),
			s.IntervalCompleted, s.IntervalFailed,
			fmtF(float64(s.IntervalMean)/float64(time.Millisecond)),
			fmtF(s.IntervalFailedPct()), fmtF(s.CumFailedPct))
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// fmtF renders a float compactly and deterministically (3 decimal places,
// trailing zeros trimmed).
func fmtF(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
