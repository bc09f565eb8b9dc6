package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// jsonKey is the key encoding/json uses for f, or "" for a skipped field.
func jsonKey(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	if f.PkgPath != "" || name == "-" {
		return ""
	}
	if name == "" {
		return f.Name
	}
	return name
}

// durationPaths lists the key path of every duration field reachable from
// t, stepping into a slice through its first element ("[0]").
func durationPaths(t reflect.Type, path string) []string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Slice:
		return durationPaths(t.Elem(), path+"[0]")
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			key := jsonKey(f)
			if key == "" {
				continue
			}
			if path != "" {
				key = path + "." + key
			}
			if f.Type == durationType || f.Type == scenarioDurationType {
				out = append(out, key)
			} else {
				out = append(out, durationPaths(f.Type, key)...)
			}
		}
		return out
	}
	return nil
}

// documentAt returns the JSON document holding v at path and nothing else.
func documentAt(t *testing.T, path string, v any) []byte {
	t.Helper()
	segs := strings.Split(path, ".")
	for i := len(segs) - 1; i >= 0; i-- {
		key, elem := strings.CutSuffix(segs[i], "[0]")
		if elem {
			v = []any{v}
		}
		v = map[string]any{key: v}
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// durationAt reads the duration field at path out of sc.
func durationAt(sc *Scenario, path string) time.Duration {
	v := reflect.ValueOf(sc).Elem()
	for _, seg := range strings.Split(path, ".") {
		key, elem := strings.CutSuffix(seg, "[0]")
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		for i := 0; i < v.NumField(); i++ {
			if jsonKey(v.Type().Field(i)) == key {
				v = v.Field(i)
				break
			}
		}
		if elem {
			v = v.Index(0)
		}
	}
	return time.Duration(v.Int())
}

// TestEveryDurationIsADurationString finds every duration field reachable
// from Scenario, so a knob added to any runtime struct a block decodes into
// is covered without touching this test: "90s" must decode to 90 s, and a
// bad string, a bare number or null must fail at parse time naming the
// field's key path.
func TestEveryDurationIsADurationString(t *testing.T) {
	paths := durationPaths(scenarioType, "")
	for _, want := range []string{"duration", "services[0].load.period", "selfHealing.cooldown",
		"resilience.breakers.openFor", "resilience.deadlines.margin", "manager.scalers[0].burstWindow"} {
		if !strings.Contains(strings.Join(paths, " ")+" ", want+" ") {
			t.Fatalf("duration fields %v miss %s", paths, want)
		}
	}
	for _, path := range paths {
		sc, err := decode(documentAt(t, path, "90s"))
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if got := durationAt(sc, path); got != 90*time.Second {
			t.Errorf("%s: \"90s\" decodes to %v", path, got)
		}
		for _, bad := range []any{"5x", 90, nil} {
			_, err := Parse(strings.NewReader(string(documentAt(t, path, bad))))
			if err == nil || !strings.HasPrefix(err.Error(), "scenario: bad duration ") ||
				!strings.Contains(err.Error(), " at "+path+":") {
				t.Errorf("%s = %v: error %v, want a bad duration at %s", path, bad, err, path)
			}
		}
	}
}

// TestUnknownKeyInRuntimeBlocks: the blocks that decode straight into
// runtime structs still name the path of a mistyped key.
func TestUnknownKeyInRuntimeBlocks(t *testing.T) {
	for _, tt := range []struct{ block, want string }{
		{`"resilience": {"retry": {"maxAtempts": 3}}`, `"maxAtempts" at resilience.retry.maxAtempts`},
		{`"selfHealing": {"enabled": true, "cooldwn": "5s"}`, `"cooldwn" at selfHealing.cooldwn`},
		{`"manager": {"scalers": [{"metric": "cpu", "wieght": 2}]}`, `"wieght" at manager.scalers[0].wieght`},
	} {
		doc := strings.Replace(minimal, `"seed": 1,`, `"seed": 1, `+tt.block+`,`, 1)
		_, err := Parse(strings.NewReader(doc))
		if want := "scenario: unknown field " + tt.want; err == nil || err.Error() != want {
			t.Errorf("error %v, want %q", err, want)
		}
	}
}

// TestSeedStaysExact: the generic first pass keeps numbers as written, so a
// seed beyond float64's 53-bit mantissa survives decoding.
func TestSeedStaysExact(t *testing.T) {
	doc := strings.Replace(minimal, `"seed": 1,`, `"seed": 9007199254740993,`, 1)
	sc, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 9007199254740993 {
		t.Errorf("seed = %d, want 9007199254740993", sc.Seed)
	}
}
