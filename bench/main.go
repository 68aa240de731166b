// Command bench is the repository's benchmark: five long-running workloads
// over the simulator, six end-to-end metrics measured with tracing off, and
// a traced run per workload that attributes host CPU, work counts and
// modelled seconds to the layers (the repro/internal packages). It measures
// every layer from outside — by timing calls into public functions, reading
// the counters the layers already export, and profiling its own process —
// and edits none of them. See README.md.
//
//	go run -C bench . --workload heatdis_wide --seed 1 --seconds 10 --trace 0
//	go run -C bench . -all -seed 42
//	go run -C bench . -selfcheck 5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// A run sets up at least setupReps times, and goes on while all its set-ups
// together have taken less than setupFloor (up to setupMax of them), so that
// the median of a set-up of a few milliseconds is as steady as that of one
// of a few seconds. setup_s is the median.
const (
	setupReps  = 3
	setupMax   = 25
	setupFloor = 500 * time.Millisecond
)

// result is the last line a run prints: exactly what the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runMeta travels with every result, so that rows from different hosts,
// commits or sizings are never compared.
type runMeta struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke"`
	Units      int     `json:"units"`
	Trips      int     `json:"watchdog_trips"` // jobs that overran their watchdog and were retried
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Params     any     `json:"params"`
}

func newMeta(w workload, seed uint64, seconds float64, traced, smoke bool) runMeta {
	return runMeta{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced, Smoke: smoke,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commit(), Params: w.Params,
	}
}

// commit names the tree being measured. The driver's checkout is not a git
// repository, so "unknown" is an expected answer.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) * 1024 / 1e6 }

// cpuSeconds is user plus system CPU time of the process so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// unitSample is one measured pass over a workload's jobs.
type unitSample struct {
	host, allocMB float64
	u             *unitResult
}

// measure repeats the workload's unit, with identical inputs, for the
// number of units that --seconds stands for, stopping early if a job hangs.
// Each unit starts from a collected heap so that its allocation and GC cost
// do not depend on its predecessor.
func measure(w workload, seed uint64, ref any, seconds float64, tr *tracer) []unitSample {
	var out []unitSample
	for n := w.units(seconds); ; {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		end := tr.begin("unit " + w.Name)
		t0 := time.Now()
		u := w.Unit(seed, ref, tr)
		host := time.Since(t0).Seconds()
		end()
		runtime.ReadMemStats(&m1)
		out = append(out, unitSample{host, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, u})
		if u.hung || len(out) == n {
			return out
		}
	}
}

// column returns f over the samples.
func column(samples []unitSample, f func(unitSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// clean drops the units a watchdog expiry disturbed, unless that leaves
// nothing to report.
func clean(samples []unitSample) []unitSample {
	var out []unitSample
	for _, s := range samples {
		if s.u.trips == 0 {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return samples
	}
	return out
}

func trips(samples []unitSample) (n int) {
	for _, s := range samples {
		n += s.u.trips
	}
	return n
}

func ops(samples []unitSample) (attempted, failed int) {
	for _, s := range samples {
		attempted += s.u.attempted
		failed += s.u.failed
	}
	return
}

// runUntraced measures the end-to-end metrics: tracing off, obs off unless
// the workload itself turns it on.
func runUntraced(w workload, meta *runMeta) (result, error) {
	seed, seconds := meta.Seed, meta.Seconds
	var setups []float64
	var ref any
	floor := setupFloor
	if meta.Smoke {
		floor = 0 // a smoke run measures nothing
	}
	for start := time.Now(); len(setups) < setupReps || (len(setups) < setupMax && time.Since(start) < floor); {
		t0 := time.Now()
		r, err := w.Setup(seed)
		if err != nil {
			return result{}, fmt.Errorf("%s: setup: %w", w.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		ref = r
	}
	samples := measure(w, seed, ref, seconds, nil)
	meta.Units, meta.Trips = len(samples), trips(samples)
	good := clean(samples)
	vals := map[string]float64{
		"host_s":            median(column(good, func(s unitSample) float64 { return s.host })),
		"alloc_mb":          median(column(good, func(s unitSample) float64 { return s.allocMB })),
		"peak_rss_mb":       peakRSSMB(),
		"virt_wall_s":       median(column(good, func(s unitSample) float64 { return s.u.virtWall })),
		"virt_resil_cost_s": median(column(good, func(s unitSample) float64 { return s.u.virtCost })),
		"setup_s":           median(setups),
	}
	res := result{}
	res.Attempted, res.Failed = ops(samples)
	res.Correct = res.Failed == 0
	res.Metrics, _ = fill(endToEnd, vals)
	return res, nil
}

// traceFile is what a traced run leaves in out/<workload>.trace.json.
type traceFile struct {
	Meta       runMeta                `json:"meta"`
	Metrics    map[string]metricValue `json:"metrics"`
	NotExposed []string               `json:"not_exposed"` // metrics this workload cannot measure; they read 0
	TracedHost float64                `json:"traced_host_s"`
	SpanSelf   map[string]float64     `json:"span_self_s"`
	Spans      []span                 `json:"spans"`
}

// runTraced measures the per-layer metrics: spans around every call into
// the layers, obs attached where the benchmark builds the job, a CPU profile
// of the measured window, and the direct probes.
func runTraced(w workload, meta *runMeta, sz probeSizing) (result, *traceFile, error) {
	tr := newTracer()
	endSetup := tr.begin("setup " + w.Name)
	ref, err := w.Setup(meta.Seed)
	endSetup()
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: setup: %w", w.Name, err)
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, nil, err
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	samples := measure(w, meta.Seed, ref, meta.Seconds, tr)
	window, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	pprof.StopCPUProfile()
	layers, err := attributeProfile(prof.Bytes())
	if err != nil {
		return result{}, nil, err
	}

	units := float64(len(samples))
	vals := make(map[string]float64)
	for _, l := range cpuLayers {
		vals[l+".self_cpu_s"] = layers[l] / units
	}
	vals[layerGC+"_cpu_s"] = layers[layerGC] / units
	vals[layerSched+"_cpu_s"] = layers[layerSched] / units
	vals["host.cpu_s"] = cpu / units
	vals["host.cpu_util"] = cpu / (window * float64(runtime.GOMAXPROCS(0)))
	// Inputs are identical from unit to unit, so the counts repeat; the
	// median keeps a unit cut short by a hang from standing for the rest.
	good := clean(samples)
	keys := make(map[string]bool)
	for _, s := range good {
		for k := range s.u.vals {
			keys[k] = true
		}
	}
	for k := range keys {
		vals[k] = median(column(good, func(s unitSample) float64 { return s.u.vals[k] }))
	}
	host := median(column(good, func(s unitSample) float64 { return s.host }))
	if n := vals["mpi.rank_iters"]; n > 0 {
		vals["mpi.host_us_per_rank_iter"] = host * 1e6 / n
	}

	probes, err := runProbes(sz, tr)
	if err != nil {
		return result{}, nil, err
	}
	for k, v := range probes {
		vals[k] = v
	}

	res := result{}
	res.Attempted, res.Failed = ops(samples)
	res.Correct = res.Failed == 0
	var missing []string
	res.Metrics, missing = fill(perLayer(), vals)
	meta.Units, meta.Trips = len(samples), trips(samples)
	return res, &traceFile{
		Meta: *meta, Metrics: res.Metrics, NotExposed: missing, TracedHost: host,
		SpanSelf: spanSelfTimes(tr.spans), Spans: tr.spans,
	}, nil
}

func writeTrace(tf *traceFile) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", tf.Meta.Workload+".trace.json"), b, 0o644)
}

func findWorkload(name string, smoke bool) (workload, error) {
	var names []string
	for _, w := range allWorkloads(smoke) {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runOne is the driver's entry point: one workload, one seed, one result on
// the last line of standard output.
func runOne(name string, seed uint64, seconds float64, traced, smoke bool) error {
	w, err := findWorkload(name, smoke)
	if err != nil {
		return err
	}
	meta := newMeta(w, seed, seconds, traced, smoke)
	var res result
	if traced {
		var tf *traceFile
		if res, tf, err = runTraced(w, &meta, probeSizes(smoke)); err != nil {
			return err
		}
		if err := writeTrace(tf); err != nil {
			return err
		}
	} else if res, err = runUntraced(w, &meta); err != nil {
		return err
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n%s\n", mb, rb)
	return nil
}

// repoFile finds a file of the repo's root from the benchmark's directory
// (go run -C bench) or from the root itself.
func repoFile(name string) (string, error) {
	for _, p := range []string{filepath.Join("..", name), name} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("%s not found from the benchmark's or the repo's directory", name)
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print its result as the last line of standard output")
		seed      = flag.Uint64("seed", 42, "workload seed: JobConfig.Seed, kill victims, chaos seed window")
		seconds   = flag.Float64("seconds", 10, "measure for about this long on the reference host: seconds / the workload's unit time, rounded, units")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		all       = flag.Bool("all", false, "run every workload untraced and traced, each in a fresh process, and print every metric")
		probes    = flag.Bool("probes", false, "run only the direct per-layer probes")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N untraced runs per workload and compare their medians against the bounds")
		smoke     = flag.Bool("smoke", false, "tiny sizing (≤ 64 ranks, ≤ 36 chaos seeds): proves every metric is emitted, measures nothing")
	)
	flag.Parse()

	var err error
	switch {
	case *selfcheck > 0:
		err = runSelfcheck(*selfcheck, *name, *seed, *seconds, *smoke)
	case *all:
		err = runAll(*seed, *seconds, *smoke)
	case *probes:
		var vals map[string]float64
		if vals, err = runProbes(probeSizes(*smoke), nil); err == nil {
			for _, d := range probeDefs {
				fmt.Printf("%-40s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
			}
		}
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace != 0, *smoke)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
