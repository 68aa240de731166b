// Package obs is the resilience observability layer: a low-overhead,
// concurrency-safe structured event log plus a metrics registry, shared by
// every layer of the stack (mpi, fenix, kr, veloc, core).
//
// Where internal/trace answers "where did the time go" as post-hoc
// aggregate buckets (the paper's Figures 5 and 6), obs answers "what
// happened, in what order": each resilience lifecycle step — failure
// detection, communicator revocation, Fenix rebuild, checkpoint restart,
// recompute — is recorded as a typed Event carrying the emitting rank, the
// virtual time, the layer, and key/value attributes. The event taxonomy is
// documented in OBSERVABILITY.md at the repository root; EventNames lists
// every name programmatically.
//
// A nil *Recorder is the no-op recorder: every method is nil-safe, so
// uninstrumented runs pay only a nil check per instrumentation site. Layers
// never construct recorders; one is injected per job via
// mpi.JobConfig.Obs and reached through mpi.Proc.
//
// Events export as JSONL (one JSON object per line, ordered by virtual
// time) and metrics as Prometheus-style text; see Recorder.WriteJSONL and
// Registry.WritePrometheus.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Attr is one key/value attribute of an event. Values are restricted to
// strings, booleans, integers, and floats; anything else is stringified on
// export.
type Attr struct {
	Key   string
	Value any
}

// KV builds an attribute.
func KV(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is one structured observability record.
type Event struct {
	// Seq is a process-global emission sequence number, used to break
	// virtual-time ties deterministically. Within one rank goroutine Seq
	// order is program order.
	Seq uint64
	// Time is the emitting rank's virtual clock, in seconds. Events that
	// describe an asynchronous completion (veloc.flush_end) carry the
	// virtual completion time, which may lie ahead of the emitter's clock.
	Time float64
	// Rank is the emitting world rank, or -1 for job-level events.
	Rank int
	// Layer is the emitting layer (mpi, fenix, kr, veloc, core).
	Layer string
	// Name is the event name, e.g. "fenix.rebuild"; see EventNames.
	Name  string
	Attrs []Attr
}

// appendJSON renders the event as a single JSON object with attributes in
// emission order (deterministic, unlike a map).
func (e *Event) appendJSON(b []byte) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, e.Time, 'g', 9, 64)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(e.Rank), 10)
	b = append(b, `,"layer":`...)
	b = strconv.AppendQuote(b, e.Layer)
	b = append(b, `,"event":`...)
	b = strconv.AppendQuote(b, e.Name)
	if len(e.Attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		for i, a := range e.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, a.Key)
			b = append(b, ':')
			b = appendJSONValue(b, a.Value)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return strconv.AppendQuote(b, x)
	case bool:
		return strconv.AppendBool(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case float64:
		// JSON has no NaN/Inf literals; quote them so the line stays
		// parseable (analyze.ReadJSONL converts them back).
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return strconv.AppendQuote(b, strconv.FormatFloat(x, 'g', -1, 64))
		}
		return strconv.AppendFloat(b, x, 'g', 9, 64)
	default:
		return strconv.AppendQuote(b, fmt.Sprint(v))
	}
}

// Recorder collects events and owns a metrics registry. All methods are
// safe for concurrent use by many rank goroutines, and all are nil-safe:
// a nil *Recorder records nothing and is the disabled default. Every event
// is retained in memory and exported after the run (WriteJSONL).
type Recorder struct {
	mu     sync.Mutex
	events []Event
	seq    uint64
	reg    *Registry
}

// New creates an enabled recorder with an empty registry.
func New() *Recorder { return &Recorder{reg: NewRegistry()} }

// Enabled reports whether the recorder actually records (false for nil).
// Instrumentation sites that would do nontrivial work to assemble
// attributes should guard on it.
func (r *Recorder) Enabled() bool { return r != nil }

// Registry returns the recorder's metrics registry (nil for a nil
// recorder; the registry's methods are themselves nil-safe).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Emit records one event. attrs are retained, not copied; callers must not
// mutate them afterwards (variadic call sites never do).
func (r *Recorder) Emit(time float64, rank int, layer, name string, attrs ...Attr) {
	if r == nil {
		return
	}
	e := Event{Time: time, Rank: rank, Layer: layer, Name: name, Attrs: attrs}
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Dropped always returns 0: the recorder never discards an event. It is
// kept because bench/ reads it.
func (r *Recorder) Dropped() uint64 { return 0 }

// Len returns the number of events currently retained in memory.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the retained log ordered by (virtual time,
// rank, emission sequence); see SortEvents. Within one rank the order is
// causal; across ranks virtual time is the shared ordering the simulation
// guarantees. Attribute slices are deep-copied, so callers may inspect and
// mutate the result without aliasing the recorder's (caller-retained)
// attrs.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	r.mu.Unlock()
	for i := range out {
		if len(out[i].Attrs) > 0 {
			out[i].Attrs = append([]Attr(nil), out[i].Attrs...)
		}
	}
	SortEvents(out)
	return out
}

// SortEvents orders events in place by (Time, Rank, Seq), the order of
// Events and WriteJSONL. Same-instant events from different ranks have no
// causal order; the emission sequence reflects the racy real-time arrival
// of their goroutines, so rank breaks the tie to keep the log
// replay-stable (Seq stays the within-rank causal order).
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Seq < b.Seq
	})
}

// WriteJSONL writes the event log as JSON Lines in Events order,
// (t, rank, seq).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	return WriteEventsJSONL(w, r.Events())
}

// WriteEventsJSONL writes events, already in Recorder.Events order, as
// JSON Lines: the encoding of Recorder.WriteJSONL for a caller that holds
// the sorted log anyway.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	var b []byte
	for i := range events {
		b = events[i].appendJSON(b[:0])
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
