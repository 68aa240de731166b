package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // -1 for a root
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer is the benchmark's own in-memory span recorder. The benchmark is a
// closed loop running one job at a time, so the open spans form a stack and
// the top of it is the parent of the next span. A nil tracer records
// nothing, which is how untraced runs stay untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans[id].End = time.Since(t.t0).Seconds()
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == id {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
	}
}

// spanSelfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its child spans cover.
func spanSelfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// [lo, hi], so overlapping children are not subtracted twice.
func covered(lo, hi float64, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, edge := 0.0, lo
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < edge {
			s = edge
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

const internalPrefix = "repro/internal/"

// layerOfFunc maps a symbol to the layer (repro/internal package) that owns
// it, or "" for a symbol outside repro/internal.
func layerOfFunc(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "sim", "trace":
		return "harness"
	}
	return rest
}

// isGCFunc reports whether a runtime symbol belongs to the garbage
// collector (mark, assist, sweep, scavenge).
func isGCFunc(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*gcWork)", "runtime.scanobject", "runtime.markroot", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOfStack charges one CPU sample, given leaf first, to the innermost
// repro/internal frame on its stack: a memmove under PFS.write is cluster's,
// a futex under Comm.collectiveLog is mpi's. A stack with no repro frame is
// the collector's if any frame is a GC function, and otherwise counts as
// scheduler time (goroutine switching, timers, the benchmark's own frames).
func layerOfStack(stack []string) string {
	gc := false
	for _, fn := range stack {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
		gc = gc || isGCFunc(fn)
	}
	if gc {
		return layerGC
	}
	return layerSched
}

// attributeProfile reads a runtime/pprof CPU profile and returns CPU seconds
// per layer.
func attributeProfile(gz []byte) (map[string]float64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		out[layerOfStack(s.stack)] += float64(s.cpuNanos) / 1e9
	}
	return out, nil
}

type profSample struct {
	stack    []string // function names, leaf first, inlined callees expanded
	cpuNanos int64
}

// parseProfile decodes the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that attribution needs:
// samples, locations with their inlined lines, function names and the string
// table. The standard library writes this format but cannot read it, and the
// module takes no dependencies.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs     []string
		rawSamp  [][]byte
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			rawSamp = append(rawSamp, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	samples := make([]profSample, 0, len(rawSamp))
	for _, b := range rawSamp {
		var locs []uint64
		var vals []int64
		err := eachField(b, func(num int, v uint64, b []byte) error {
			switch num {
			case 1, 2: // location_id, value: packed or repeated varints
				var xs []uint64
				if b == nil {
					xs = []uint64{v}
				} else {
					for len(b) > 0 {
						x, n := binary.Uvarint(b)
						if n <= 0 {
							return errors.New("profile: bad packed varint")
						}
						xs = append(xs, x)
						b = b[n:]
					}
				}
				for _, x := range xs {
					if num == 1 {
						locs = append(locs, x)
					} else {
						vals = append(vals, int64(x))
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// A CPU profile's sample values are [sample count, cpu nanoseconds].
		if len(vals) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := profSample{cpuNanos: vals[1]}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i < uint64(len(strs)) {
					s.stack = append(s.stack, strs[i])
				}
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// eachField walks the top-level fields of one protobuf message. Varint
// fields arrive in v with b nil; length-delimited fields arrive in b.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field tag")
		}
		msg = msg[n:]
		num, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l) : n+int(l)] // non-nil even when empty
			msg = msg[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
