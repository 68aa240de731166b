package analyze

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// wireEvent mirrors the JSONL export schema of obs.Event.appendJSON.
type wireEvent struct {
	T     float64        `json:"t"`
	Rank  int            `json:"rank"`
	Layer string         `json:"layer"`
	Event string         `json:"event"`
	Attrs map[string]any `json:"attrs"`
}

// ReadJSONL parses an events JSONL stream (the output of
// Recorder.WriteJSONL) back into events. JSON
// objects lose attribute order, so attributes are re-sorted by key; the
// emission sequence is reconstructed from line order, preserving the
// file's tie-break order for equal timestamps. Quoted non-finite floats
// ("NaN", "+Inf", "-Inf") are converted back to float64.
func ReadJSONL(r io.Reader) ([]obs.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []obs.Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var we wireEvent
		if err := json.Unmarshal(raw, &we); err != nil {
			return nil, fmt.Errorf("analyze: line %d: %w", line, err)
		}
		e := obs.Event{
			Seq:   uint64(line),
			Time:  we.T,
			Rank:  we.Rank,
			Layer: we.Layer,
			Name:  we.Event,
		}
		if len(we.Attrs) > 0 {
			keys := make([]string, 0, len(we.Attrs))
			for k := range we.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				e.Attrs = append(e.Attrs, obs.KV(k, reviveValue(we.Attrs[k])))
			}
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	return events, nil
}

// reviveValue undoes the export encodings that have no JSON literal:
// non-finite floats exported as quoted strings.
func reviveValue(v any) any {
	s, ok := v.(string)
	if !ok {
		return v
	}
	switch s {
	case "NaN":
		return math.NaN()
	case "+Inf":
		return math.Inf(1)
	case "-Inf":
		return math.Inf(-1)
	}
	return v
}

// attr returns the value of the named attribute.
func attr(e obs.Event, key string) (any, bool) {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// attrNum returns a numeric attribute as float64, accepting every numeric
// type the emitter may use and the float64 the JSON decoder produces.
func attrNum(e obs.Event, key string) (float64, bool) {
	v, ok := attr(e, key)
	if !ok {
		return 0, false
	}
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint64:
		return float64(x), true
	case string:
		if f, err := strconv.ParseFloat(x, 64); err == nil {
			return f, true
		}
	}
	return 0, false
}

// attrInt returns a numeric attribute as int.
func attrInt(e obs.Event, key string) (int, bool) {
	f, ok := attrNum(e, key)
	if !ok {
		return 0, false
	}
	return int(f), true
}

// attrBool returns a boolean attribute.
func attrBool(e obs.Event, key string) (bool, bool) {
	v, ok := attr(e, key)
	if !ok {
		return false, false
	}
	b, ok := v.(bool)
	return b, ok
}

// attrString returns a string attribute.
func attrString(e obs.Event, key string) (string, bool) {
	v, ok := attr(e, key)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}
