package obs

import (
	"errors"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestEventsOrderedByTimeThenSeq(t *testing.T) {
	r := New()
	r.Emit(2.0, 0, LayerMPI, EvRevoke)
	r.Emit(1.0, 1, LayerCore, EvSessionStart)
	r.Emit(2.0, 2, LayerFenix, EvFenixRebuild) // same time as the revoke, later seq
	r.Emit(0.5, 3, LayerMPI, EvJobLaunch)

	got := r.Events()
	want := []string{EvJobLaunch, EvSessionStart, EvRevoke, EvFenixRebuild}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Name != want[i] {
			t.Errorf("event %d: got %s, want %s", i, e.Name, want[i])
		}
	}
	// The tie at t=2.0 must break on rank, then emission order.
	if got[2].Seq > got[3].Seq {
		t.Errorf("tie at t=2.0 broke out of emission order: seq %d before %d", got[2].Seq, got[3].Seq)
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	r := New()
	r.Emit(1.5, 0, LayerVeloC, EvVeloCCheckpoint,
		KV("name", "app"), KV("version", 3), KV("bytes", 1024), KV("ok", true), KV("cost", 0.25))
	r.Emit(0.5, -1, LayerMPI, EvJobLaunch)

	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"t":0.5,"rank":-1,"layer":"mpi","event":"mpi.job_launch"}
{"t":1.5,"rank":0,"layer":"veloc","event":"veloc.checkpoint","attrs":{"name":"app","version":3,"bytes":1024,"ok":true,"cost":0.25}}
`
	if b.String() != want {
		t.Errorf("JSONL mismatch:\ngot:\n%swant:\n%s", b.String(), want)
	}
}

func TestAppendJSONValueStringifiesUnknownTypes(t *testing.T) {
	got := string(appendJSONValue(nil, []int{1, 2}))
	if got != `"[1 2]"` {
		t.Errorf("unknown type rendered as %s, want quoted stringification", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.Emit(1, 0, LayerMPI, EvRevoke) // must not panic
	if r.Len() != 0 || r.Events() != nil {
		t.Error("nil recorder retained events")
	}
	if err := r.WriteJSONL(os.Stderr); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}

	reg := r.Registry()
	if reg != nil {
		t.Fatal("nil recorder handed out a registry")
	}
	reg.Counter("x").Inc()
	reg.Counter("x").Add(5)
	reg.Gauge("y").Set(3)
	reg.Gauge("y").Add(-1)
	reg.Histogram("z", nil).Observe(0.5)
	if reg.CounterValue("x") != 0 || reg.GaugeValue("y") != 0 {
		t.Error("nil registry returned nonzero values")
	}
	if err := reg.WritePrometheus(os.Stderr); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
}

// TestNilRecorderStreamSafe checks the nil-safe accessor that outlived the
// stream and ring-buffer modes: Dropped, which bench/ still reads.
func TestNilRecorderStreamSafe(t *testing.T) {
	var r *Recorder
	if r.Dropped() != 0 {
		t.Error("nil recorder reports drops")
	}
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil WriteJSONL wrote %q, err %v", b.String(), err)
	}
}

// TestEventsCopiesAttrs is the aliasing regression test: mutating the
// slice returned by Events must not corrupt the recorder's log (Emit
// retains caller-owned attr slices, so export paths must copy).
func TestEventsCopiesAttrs(t *testing.T) {
	r := New()
	attrs := []Attr{KV("failed_rank", 1)}
	r.Emit(1.0, 0, LayerMPI, EvFailureDetected, attrs...)

	got := r.Events()
	got[0].Attrs[0] = KV("failed_rank", 999)

	again := r.Events()
	if v := again[0].Attrs[0].Value; v != 1 {
		t.Errorf("mutating Events() result corrupted the log: attr = %v, want 1", v)
	}
	// The caller-owned slice passed to Emit is also isolated from Events
	// consumers.
	if attrs[0].Value != 1 {
		t.Errorf("caller slice mutated: %v", attrs[0].Value)
	}
}

func TestAppendJSONValueNonFiniteFloats(t *testing.T) {
	cases := []struct {
		v    any
		want string
	}{
		{math.NaN(), `"NaN"`},
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
		{1.5, "1.5"},
	}
	for _, c := range cases {
		if got := string(appendJSONValue(nil, c.v)); got != c.want {
			t.Errorf("appendJSONValue(%v) = %s, want %s", c.v, got, c.want)
		}
	}
}

// TestAppendJSONQuotesFallbackStrings checks that fallback-stringified
// values with JSON-hostile characters stay correctly quoted.
func TestAppendJSONQuotesFallbackStrings(t *testing.T) {
	type weird struct{ S string }
	got := string(appendJSONValue(nil, weird{S: "a\"b\nc"}))
	want := `"{a\"b\nc}"`
	if got != want {
		t.Errorf("fallback quoting: got %s, want %s", got, want)
	}
	// NaN inside an event line keeps the whole line valid JSON.
	r := New()
	r.Emit(1.0, 0, LayerVeloC, EvVeloCRestart, KV("seconds", math.NaN()))
	var b strings.Builder
	if err := r.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want = `{"t":1,"rank":0,"layer":"veloc","event":"veloc.restart","attrs":{"seconds":"NaN"}}` + "\n"
	if b.String() != want {
		t.Errorf("JSONL with NaN:\ngot:  %swant: %s", b.String(), want)
	}
}

// TestWriteJSONLReturnsWriteError checks that an export to a failing
// writer reports the error instead of truncating the log silently.
func TestWriteJSONLReturnsWriteError(t *testing.T) {
	r := New()
	r.Emit(1.0, 0, LayerMPI, EvRevoke)
	want := errors.New("disk full")
	if err := r.WriteJSONL(failWriter{want}); !errors.Is(err, want) {
		t.Errorf("WriteJSONL to a failing writer = %v, want %v", err, want)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative counter increment did not panic")
		}
	}()
	NewRegistry().Counter("c").Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 10})
	for _, v := range []float64{0.5, 1.0, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 106.5 {
		t.Errorf("sum = %v, want 106.5", h.Sum())
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE lat histogram
lat_bucket{le="1"} 2
lat_bucket{le="10"} 3
lat_bucket{le="+Inf"} 4
lat_sum 106.5
lat_count 4
`
	if b.String() != want {
		t.Errorf("histogram exposition mismatch:\ngot:\n%swant:\n%s", b.String(), want)
	}
}

func TestWritePrometheusSortedWithLabels(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("checkpoints_total", L("layer", "veloc")).Add(3)
	reg.Counter("checkpoints_total", L("layer", "imr")).Add(2)
	reg.Gauge("depth").Set(1)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE checkpoints_total counter
checkpoints_total{layer="imr"} 2
checkpoints_total{layer="veloc"} 3
# TYPE depth gauge
depth 1
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%swant:\n%s", b.String(), want)
	}
}

func TestSeriesIdentityIgnoresLabelOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", L("a", "1"), L("b", "2")).Inc()
	reg.Counter("m", L("b", "2"), L("a", "1")).Inc()
	if v := reg.CounterValue("m", L("a", "1"), L("b", "2")); v != 2 {
		t.Errorf("label order created distinct series: value %v, want 2", v)
	}
	// Distinct label values are distinct series.
	reg.Counter("m", L("a", "other")).Inc()
	if v := reg.CounterValue("m", L("a", "other")); v != 1 {
		t.Errorf("distinct labels collapsed: value %v, want 1", v)
	}
}

func TestHistogramBoundsFixedAtCreation(t *testing.T) {
	reg := NewRegistry()
	h1 := reg.Histogram("h", []float64{1, 2, 3})
	h2 := reg.Histogram("h", []float64{100}) // bounds ignored: series exists
	if h1 != h2 {
		t.Error("same series returned distinct histograms")
	}
}

// TestConcurrentRanks exercises the recorder and registry from 16 rank
// goroutines under -race, the way a simulated job uses them.
func TestConcurrentRanks(t *testing.T) {
	const ranks = 16
	const perRank = 200
	r := New()
	reg := r.Registry()
	var wg sync.WaitGroup
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				r.Emit(float64(i), rank, LayerVeloC, EvVeloCCheckpoint, KV("version", i))
				reg.Counter(MCheckpoints, L("layer", "veloc")).Inc()
				reg.Gauge(MFlushQueueDepth).Set(float64(i % 4))
				reg.Histogram(MFlushSeconds, TimeBuckets).Observe(float64(i) * 1e-3)
			}
		}(rank)
	}
	wg.Wait()

	if r.Len() != ranks*perRank {
		t.Errorf("recorded %d events, want %d", r.Len(), ranks*perRank)
	}
	if v := reg.CounterValue(MCheckpoints, L("layer", "veloc")); v != ranks*perRank {
		t.Errorf("counter = %v, want %d", v, ranks*perRank)
	}
	if n := reg.Histogram(MFlushSeconds, TimeBuckets).Count(); n != ranks*perRank {
		t.Errorf("histogram count = %d, want %d", n, ranks*perRank)
	}
	events := r.Events()
	for i := 1; i < len(events); i++ {
		a, b := events[i-1], events[i]
		if a.Time > b.Time ||
			(a.Time == b.Time && a.Rank > b.Rank) ||
			(a.Time == b.Time && a.Rank == b.Rank && a.Seq > b.Seq) {
			t.Fatalf("events out of order at %d: (%v,r%d,%d) before (%v,r%d,%d)",
				i, a.Time, a.Rank, a.Seq, b.Time, b.Rank, b.Seq)
		}
	}
}

// TestTaxonomyDocumented cross-checks the machine-readable taxonomy against
// OBSERVABILITY.md: every event and metric name must be documented there.
func TestTaxonomyDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("reading OBSERVABILITY.md: %v", err)
	}
	text := string(doc)
	for _, name := range EventNames() {
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("event %s is not documented in OBSERVABILITY.md", name)
		}
	}
	for _, name := range MetricNames() {
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("metric %s is not documented in OBSERVABILITY.md", name)
		}
	}
}

func TestEventNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range EventNames() {
		if seen[n] {
			t.Errorf("duplicate event name %s", n)
		}
		seen[n] = true
		dot := strings.IndexByte(n, '.')
		if dot <= 0 {
			t.Errorf("event %s lacks a layer. prefix", n)
			continue
		}
		switch layer := n[:dot]; layer {
		case LayerMPI, LayerFenix, LayerKR, LayerVeloC, LayerCore, LayerChaos, LayerCluster:
		default:
			t.Errorf("event %s has unknown layer prefix %q", n, layer)
		}
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var r *Recorder
	for i := 0; i < b.N; i++ {
		if r.Enabled() {
			r.Emit(1, 0, LayerMPI, EvRevoke, KV("comm", 1))
		}
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	r := New()
	for i := 0; i < b.N; i++ {
		r.Emit(float64(i), 0, LayerMPI, EvRevoke, KV("comm", 1))
	}
}

var sinkErr error

func BenchmarkWriteJSONL(b *testing.B) {
	r := New()
	for i := 0; i < 1000; i++ {
		r.Emit(float64(i), i%16, LayerVeloC, EvVeloCCheckpoint,
			KV("name", "app"), KV("version", i), KV("bytes", 1<<20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkErr = r.WriteJSONL(discard{})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
