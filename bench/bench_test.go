package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalogue pins BENCHMARK.json to the names and
// units the program emits and to the limits the driver's contract sets.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	ws := allWorkloads(false)
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		name(w.Name)
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		name(d.Name)
		m := f.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better() || m.Better != "lower" {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v (lower is better)", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}

	defs := perLayer()
	if len(defs) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(defs))
	}
	if len(f.PerLayer) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(f.PerLayer), len(defs))
	}
	for i, d := range defs {
		name(d.Name)
		m := f.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better() {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", f.RunSeconds)
	}
}

// TestSmokeEmitsEveryMetric runs every workload at the smoke sizing, traced
// and untraced, and checks that each result carries exactly the metrics
// BENCHMARK.json names and that no check failed.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range allWorkloads(true) {
		meta := newMeta(w, 1, 0, false, true)
		plain, err := runUntraced(w, &meta)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Units != 1 || plain.Failed != 0 || plain.Attempted < 1 || !plain.Correct {
			t.Errorf("%s: units %d, %d of %d operations failed", w.Name, meta.Units, plain.Failed, plain.Attempted)
		}
		if len(plain.Metrics) != len(f.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(plain.Metrics), len(f.EndToEnd))
		}
		for _, m := range f.EndToEnd {
			if v, ok := plain.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v); it must be there and never 0", w.Name, m.Name, v, ok)
			}
		}

		meta = newMeta(w, 1, 0, true, true)
		traced, tf, err := runTraced(w, &meta, probeSizes(true))
		if err != nil {
			t.Fatal(err)
		}
		if traced.Failed != 0 || !traced.Correct {
			t.Errorf("%s traced: %d of %d operations failed", w.Name, traced.Failed, traced.Attempted)
		}
		if len(traced.Metrics) != len(f.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(traced.Metrics), len(f.PerLayer))
		}
		for _, m := range f.PerLayer {
			if v, ok := traced.Metrics[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
		}
		for _, d := range probeDefs {
			if !(traced.Metrics[d.Name].Value > 0) {
				t.Errorf("%s: probe %s = %v", w.Name, d.Name, traced.Metrics[d.Name].Value)
			}
		}
		if len(tf.Spans) == 0 || tf.Meta.Units != 1 {
			t.Errorf("%s: trace has %d spans over %d units", w.Name, len(tf.Spans), tf.Meta.Units)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"cluster", []string{"runtime.memmove", "repro/internal/cluster.(*PFS).write", "repro/internal/cluster.(*Node).FlushAsyncFor", "repro/internal/veloc.(*Client).Checkpoint", "repro/internal/kr.(*Context).Checkpoint"}},
		{"mpi", []string{"runtime.futex", "runtime.notesleep", "sync.(*Mutex).lockSlow", "repro/internal/mpi.(*Comm).collectiveLog", "repro/internal/apps/heatdis.App.func1"}},
		{"apps", []string{"repro/internal/apps/heatdis.(*state).step", "repro/internal/core.(*Session).Region"}},
		{"kokkos", []string{"repro/internal/kokkos.(*F64View).At2", "repro/internal/apps/heatdis.(*state).step"}},
		{"apps", []string{"math.Sqrt", "repro/internal/apps/minimd.(*sim).force", "repro/internal/core.runRank"}},
		{"obs", []string{"runtime.mallocgc", "repro/internal/obs/analyze.Analyze", "repro/internal/chaos.RunOneStreaming", "main.main"}},
		{"harness", []string{"repro/internal/sim.(*RNG).Float64", "repro/internal/mpi.(*Proc).Compute"}},
		{"harness", []string{"repro/internal/trace.(*Recorder).Add", "repro/internal/mpi.(*Proc).ChargeTime"}},
		{"kr", []string{"hash/crc32.ieeeCLMUL", "hash/crc32.Update", "repro/internal/kr.serializeViews"}},
		{"mpi", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/mpi.(*World).newOp"}},
		{layerGC, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{layerGC, []string{"runtime.(*mspan).sweep", "runtime.bgsweep"}},
		{layerSched, []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}},
		{layerSched, []string{"main.measure", "main.runUntraced", "main.main"}},
		{layerSched, nil},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "unit", Parent: -1, Start: 0, End: 10},
		{ID: 1, Name: "job", Parent: 0, Start: 1, End: 4},
		{ID: 2, Name: "job", Parent: 0, Start: 3, End: 6},     // overlaps span 1: the union [1,6] is covered once
		{ID: 3, Name: "export", Parent: 0, Start: 9, End: 12}, // clipped to the parent's end
		{ID: 4, Name: "inner", Parent: 1, Start: 1.5, End: 2},
	}
	want := map[string]float64{
		"unit":   10 - (5 + 1),    // [1,6] and [9,10]
		"job":    (3 - 0.5) + 3.0, // span 1 minus its child, span 2 whole
		"export": 3,
		"inner":  0.5,
	}
	got := spanSelfTimes(spans)
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("self time of %q = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTracerParents(t *testing.T) {
	tr := newTracer()
	endA := tr.begin("a")
	endB := tr.begin("b")
	endB()
	endC := tr.begin("c")
	endC()
	endA()
	tr.begin("d")()
	want := []int{-1, 0, 0, -1}
	for i, s := range tr.spans {
		if s.Parent != want[i] || s.End < s.Start {
			t.Errorf("span %d (%s): parent %d, want %d; [%v, %v]", i, s.Name, s.Parent, want[i], s.Start, s.End)
		}
	}
	var off *tracer
	off.begin("nothing")() // a nil tracer records nothing and must not panic
}

// TestParseProfile decodes a profile the runtime just wrote.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling is already on:", err)
	}
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if len(s.stack) == 0 || s.cpuNanos <= 0 {
			t.Fatalf("sample %+v has no stack or no CPU time", s)
		}
	}
	if len(samples) == 0 {
		t.Log("no samples in 200 ms; nothing to check beyond decoding (x =", x, ")")
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

// TestQuartiles pins quartiles to statistics.quantiles(xs, n=4) of Python.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; Python gives 1.5, 12", q1, q3)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestEventCounter(t *testing.T) {
	c := newEventCounter()
	for _, chunk := range []string{
		`{"t":1,"rank":0,"layer":"mpi","event":"mpi.rev`, `oke"}` + "\n" + `{"t":2,"rank":1,"layer":"veloc","event":"veloc.checkpoint","attrs":{"event":"x"}}` + "\n",
		`{"t":3,"rank":0,"layer":"mpi","event":"mpi.revoke"}` + "\n",
	} {
		if n, err := c.Write([]byte(chunk)); n != len(chunk) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	if c.total != 3 || c.byName["mpi.revoke"] != 2 || c.byName["veloc.checkpoint"] != 1 {
		t.Errorf("counted %d events, %v", c.total, c.byName)
	}
}

// TestGuardedRetriesOnce drives the watchdog: an attempt that never returns
// is abandoned and retried, and only a second hang is a failed operation.
func TestGuardedRetriesOnce(t *testing.T) {
	stuck := make(chan struct{}) // never closed: an attempt receiving from it hangs
	var calls atomic.Int32
	u := newUnit()
	v, ok := guarded(u, nil, "flaky job", time.Millisecond, func() int {
		if calls.Add(1) == 1 {
			<-stuck
		}
		return 42
	})
	if !ok || v != 42 || u.trips != 1 || u.failed != 0 || u.hung {
		t.Errorf("one hang then success: v=%d ok=%v trips=%d failed=%d hung=%v", v, ok, u.trips, u.failed, u.hung)
	}

	u = newUnit()
	_, ok = guarded(u, nil, "dead job", time.Millisecond, func() int { <-stuck; return 0 })
	if ok || u.trips != 2 || u.failed != 1 || u.attempted != 1 || !u.hung {
		t.Errorf("two hangs: ok=%v trips=%d failed=%d attempted=%d hung=%v", ok, u.trips, u.failed, u.attempted, u.hung)
	}
}
