package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one metric label pair. Series with the same name but different
// labels are distinct (Prometheus semantics).
type Label struct{ Key, Value string }

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// TimeBuckets are the default histogram bucket bounds, in ascending order
// (+Inf is implicit), suited to virtual-second latencies (checkpoint sync
// cost, flush duration).
var TimeBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 60, 600}

// Counter is a monotonically increasing metric. A nil Counter (from a nil
// Registry) discards all updates.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increases the counter by d (d must be non-negative).
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	if d < 0 {
		panic(fmt.Sprintf("obs: negative counter increment %v", d))
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a metric that can go up and down. A nil Gauge discards updates.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram accumulates observations into cumulative buckets
// (Prometheus-style le bounds). A nil Histogram discards observations.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending; +Inf implicit
	counts []uint64  // len(bounds)+1, non-cumulative per bucket
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the bucket that contains the
// target rank, mirroring Prometheus's histogram_quantile: the first bucket
// interpolates from zero (observations are non-negative virtual seconds or
// bytes), and a rank landing in the +Inf overflow bucket clamps to the
// highest finite bound (or the empirical mean when the histogram has no
// finite bounds at all). The estimate is exact whenever the target rank
// falls on a bucket boundary and never leaves the bucket's bounds, so it
// is safe for p50/p99 reporting without retaining raw samples.
//
// It is NaN-safe in both directions: a nil or empty histogram returns NaN
// (there is no distribution to summarize), as does a q outside [0, 1] or a
// NaN q.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	cum := uint64(0)
	for i, count := range h.counts {
		if count == 0 {
			continue
		}
		prev := float64(cum)
		cum += count
		if float64(cum) < rank {
			continue
		}
		if i == len(h.bounds) {
			// Overflow bucket: no finite upper bound to interpolate toward.
			if len(h.bounds) == 0 {
				// A bound-less histogram puts every observation in its sole
				// (+Inf) bucket. The empirical mean is the only point
				// estimate available, and being constant in q it keeps
				// quantiles monotone instead of collapsing to NaN.
				return h.sum / float64(h.n)
			}
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.bounds[i-1]
		}
		return lower + (h.bounds[i]-lower)*(rank-prev)/float64(count)
	}
	return math.NaN() // unreachable: n > 0 guarantees a non-empty bucket
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// series identifies one metric time series for export.
type series struct {
	name   string
	labels []Label // sorted by key
}

// Registry holds the metric series of one run. All methods are safe for
// concurrent use and nil-safe: a nil *Registry hands out nil metrics whose
// update methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	meta     map[string]series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		meta:     make(map[string]series),
	}
}

func seriesKey(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String(), sorted
}

// Counter returns (creating on first use) the counter series for
// name+labels.
func (g *Registry) Counter(name string, labels ...Label) *Counter {
	if g == nil {
		return nil
	}
	key, sorted := seriesKey(name, labels)
	g.mu.Lock()
	defer g.mu.Unlock()
	c, ok := g.counters[key]
	if !ok {
		c = &Counter{}
		g.counters[key] = c
		g.meta[key] = series{name: name, labels: sorted}
	}
	return c
}

// Gauge returns (creating on first use) the gauge series for name+labels.
func (g *Registry) Gauge(name string, labels ...Label) *Gauge {
	if g == nil {
		return nil
	}
	key, sorted := seriesKey(name, labels)
	g.mu.Lock()
	defer g.mu.Unlock()
	ga, ok := g.gauges[key]
	if !ok {
		ga = &Gauge{}
		g.gauges[key] = ga
		g.meta[key] = series{name: name, labels: sorted}
	}
	return ga
}

// Histogram returns (creating on first use) the histogram series for
// name+labels. bounds applies on first creation only; nil selects
// TimeBuckets.
func (g *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if g == nil {
		return nil
	}
	key, sorted := seriesKey(name, labels)
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.hists[key]
	if !ok {
		if bounds == nil {
			bounds = TimeBuckets
		}
		cp := make([]float64, len(bounds))
		copy(cp, bounds)
		h = &Histogram{bounds: cp, counts: make([]uint64, len(cp)+1)}
		g.hists[key] = h
		g.meta[key] = series{name: name, labels: sorted}
	}
	return h
}

// CounterValue returns the current value of a counter series, or 0 if the
// series does not exist.
func (g *Registry) CounterValue(name string, labels ...Label) float64 {
	if g == nil {
		return 0
	}
	key, _ := seriesKey(name, labels)
	g.mu.Lock()
	c := g.counters[key]
	g.mu.Unlock()
	return c.Value()
}

// GaugeValue returns the current value of a gauge series, or 0 if absent.
func (g *Registry) GaugeValue(name string, labels ...Label) float64 {
	if g == nil {
		return 0
	}
	key, _ := seriesKey(name, labels)
	g.mu.Lock()
	ga := g.gauges[key]
	g.mu.Unlock()
	return ga.Value()
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus writes every series in Prometheus text exposition
// format, grouped by metric name with # TYPE headers, sorted for
// deterministic output.
func (g *Registry) WritePrometheus(w io.Writer) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	type entry struct {
		kind string // counter, gauge, histogram
		key  string
		s    series
	}
	var entries []entry
	for k := range g.counters {
		entries = append(entries, entry{"counter", k, g.meta[k]})
	}
	for k := range g.gauges {
		entries = append(entries, entry{"gauge", k, g.meta[k]})
	}
	for k := range g.hists {
		entries = append(entries, entry{"histogram", k, g.meta[k]})
	}
	g.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool {
		if entries[i].s.name != entries[j].s.name {
			return entries[i].s.name < entries[j].s.name
		}
		return entries[i].key < entries[j].key
	})

	lastName := ""
	var b strings.Builder
	for _, e := range entries {
		if e.s.name != lastName {
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.s.name, e.kind)
			lastName = e.s.name
		}
		switch e.kind {
		case "counter":
			fmt.Fprintf(&b, "%s%s %s\n", e.s.name, renderLabels(e.s.labels), formatValue(g.counters[e.key].Value()))
		case "gauge":
			fmt.Fprintf(&b, "%s%s %s\n", e.s.name, renderLabels(e.s.labels), formatValue(g.gauges[e.key].Value()))
		case "histogram":
			h := g.hists[e.key]
			h.mu.Lock()
			cum := uint64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i]
				le := strconv.FormatFloat(bound, 'g', -1, 64)
				fmt.Fprintf(&b, "%s_bucket%s %d\n", e.s.name, renderLabels(e.s.labels, L("le", le)), cum)
			}
			cum += h.counts[len(h.bounds)]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", e.s.name, renderLabels(e.s.labels, L("le", "+Inf")), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", e.s.name, renderLabels(e.s.labels), formatValue(h.sum))
			fmt.Fprintf(&b, "%s_count%s %d\n", e.s.name, renderLabels(e.s.labels), h.n)
			h.mu.Unlock()
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
