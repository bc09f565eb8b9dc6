package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file turns scenario JSON into a Scenario, enforcing two rules the
// std json package does not know: every duration, at any depth, is a Go
// duration string such as "30s" (lowerDuration), and a decode error names
// the offending key path, so an unknown key reads "services[2].qeueLimit"
// rather than encoding/json's bare `unknown field "qeueLimit"`. Type errors
// already carry a field path and are reformatted; syntax errors gain a
// line/column.

var (
	scenarioType         = reflect.TypeOf(Scenario{})
	durationType         = reflect.TypeOf(time.Duration(0))
	scenarioDurationType = reflect.TypeOf(Duration(0))
)

// decode parses data into a Scenario without validating it. The document is
// first read generically, numbers kept as json.Number so an int64 seed stays
// exact; lowerDuration then checks every duration, and the result is
// re-encoded and decoded strictly.
func decode(data []byte) (*Scenario, error) {
	gen := json.NewDecoder(bytes.NewReader(data))
	gen.UseNumber()
	var doc any
	if err := gen.Decode(&doc); err != nil {
		var synErr *json.SyntaxError
		if errors.As(err, &synErr) {
			line, col := lineCol(data, synErr.Offset)
			return nil, fmt.Errorf("scenario: invalid JSON at line %d, column %d: %w", line, col, err)
		}
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := walk(doc, scenarioType, "", lowerDuration); err != nil {
		return nil, err
	}
	norm, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(norm))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, describeError(doc, err)
	}
	return &sc, nil
}

// lowerDuration owns the rule that a scenario duration is a Go duration
// string: anything else at a duration field is rejected with its key path.
// At a time.Duration field the string becomes its nanosecond count; a
// Duration field keeps it for Duration.UnmarshalJSON.
func lowerDuration(m map[string]any, key, path string, t reflect.Type) error {
	if t != durationType && t != scenarioDurationType {
		return nil
	}
	s, ok := m[key].(string)
	if !ok {
		raw, _ := json.Marshal(m[key]) // a decoded JSON value always re-encodes
		return fmt.Errorf("scenario: bad duration %s at %s: want a string like \"30s\"", raw, path)
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scenario: bad duration %q at %s: %w", s, path, err)
	}
	if t == durationType {
		m[key] = json.Number(strconv.FormatInt(int64(d), 10))
	}
	return nil
}

// describeError enriches a strict-decode error with the offending key path.
func describeError(doc any, err error) error {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		path := typeErr.Field
		if path == "" {
			path = "(document root)"
		}
		return fmt.Errorf("scenario: invalid value at %s: got JSON %s, want %s",
			path, typeErr.Value, typeErr.Type)
	}
	if name, ok := unknownFieldName(err); ok {
		if path, found := findKeyPath(doc, name); found {
			return fmt.Errorf("scenario: unknown field %q at %s", name, path)
		}
		return fmt.Errorf("scenario: unknown field %q", name)
	}
	return fmt.Errorf("scenario: %w", err)
}

// unknownFieldName extracts the field from `json: unknown field "x"`.
func unknownFieldName(err error) (string, bool) {
	msg := err.Error()
	const marker = `unknown field "`
	i := strings.Index(msg, marker)
	if i < 0 {
		return "", false
	}
	rest := msg[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(data []byte, offset int64) (int, int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	line, col := 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// findKeyPath locates field as a key Scenario does not declare somewhere in
// the generically decoded document.
func findKeyPath(doc any, field string) (string, bool) {
	errFound := errors.New("found")
	var at string
	err := walk(doc, scenarioType, "", func(_ map[string]any, key, path string, t reflect.Type) error {
		if t == nil && key == field {
			at = path
			return errFound
		}
		return nil
	})
	return at, errors.Is(err, errFound)
}

// walk descends the generically decoded value v in lockstep with the Go
// type t it decodes into, calling visit on every object member in key order
// with the member's key path and type (nil for a key t does not declare).
// visit may replace the member in m; walk then descends into the
// replacement. The first error stops the walk and is returned.
func walk(v any, t reflect.Type, path string, visit func(m map[string]any, key, path string, t reflect.Type) error) error {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Struct:
		m, ok := v.(map[string]any)
		if !ok {
			return nil
		}
		keys := make([]string, 0, len(m))
		for key := range m {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			sub := key
			if path != "" {
				sub = path + "." + key
			}
			ft := memberType(t, key)
			if err := visit(m, key, sub, ft); err != nil {
				return err
			}
			if ft != nil {
				if err := walk(m[key], ft, sub, visit); err != nil {
					return err
				}
			}
		}
	case reflect.Slice, reflect.Array:
		arr, ok := v.([]any)
		if !ok {
			return nil
		}
		for i, item := range arr {
			if err := walk(item, t.Elem(), fmt.Sprintf("%s[%d]", path, i), visit); err != nil {
				return err
			}
		}
	}
	return nil
}

// memberType returns the type of struct t's field with json key key,
// matched case-insensitively as encoding/json matches it, or nil if t
// declares no such key.
func memberType(t reflect.Type, key string) reflect.Type {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" {
			continue // unexported
		}
		name := f.Name
		if tag, ok := f.Tag.Lookup("json"); ok {
			base, _, _ := strings.Cut(tag, ",")
			if base == "-" {
				continue
			}
			if base != "" {
				name = base
			}
		}
		if strings.EqualFold(name, key) {
			return f.Type
		}
	}
	return nil
}
