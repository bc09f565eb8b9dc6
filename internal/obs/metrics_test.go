package obs

import (
	"reflect"
	"strings"
	"testing"
)

var sampleSeries = []Series{
	{Name: "a_total", Type: TypeCounter, Help: "A.", Value: 3},
	{Name: "b_total", Type: TypeCounter, Help: "B.", Labels: `kind="x"`, Value: 0},
	{Name: "b_total", Type: TypeCounter, Help: "B.", Labels: `kind="y"`, Value: 2},
	{Name: "c", Type: TypeGauge, Help: "C.", Value: 0},
	{Name: "d", Type: TypeGauge, Help: "D.", Labels: `node="n1"`, Value: 1},
	{Name: "e", Type: TypeGauge, Help: "E.", Labels: `service="s",scaler="cpu"`, Value: 4},
	{Name: "f", Type: TypeGauge, Help: "F.", Labels: `zone="0"`, Value: 1.5},
	{Name: "f", Type: TypeGauge, Help: "F.", Labels: `zone="1"`, Value: 2},
}

// TestTextLines pins the text sinks' rule: one line per family, zero
// samples elided, per-node and per-service families left out.
func TestTextLines(t *testing.T) {
	want := []string{"a_total 3", `b_total kind="y" 2`, `f zone="0" 1.5, zone="1" 2`}
	if got := TextLines(sampleSeries); !reflect.DeepEqual(got, want) {
		t.Errorf("TextLines = %q, want %q", got, want)
	}
}

func TestWritePrometheus(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, sampleSeries); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total A.
# TYPE a_total counter
a_total 3
# HELP b_total B.
# TYPE b_total counter
b_total{kind="x"} 0
b_total{kind="y"} 2
# HELP c C.
# TYPE c gauge
c 0
# HELP d D.
# TYPE d gauge
d{node="n1"} 1
# HELP e E.
# TYPE e gauge
e{service="s",scaler="cpu"} 4
# HELP f F.
# TYPE f gauge
f{zone="0"} 1.5
f{zone="1"} 2
`
	if got := b.String(); got != want {
		t.Errorf("WritePrometheus =\n%s\nwant\n%s", got, want)
	}
}
