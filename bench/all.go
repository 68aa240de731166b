package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// child re-executes this binary for one workload run and decodes the result
// on the last line of its standard output. A fresh process per run is what
// makes alloc_mb and peak_rss_mb per-workload high-water marks.
func child(name string, seed uint64, seconds float64, traced, smoke bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace,
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s (seed %d, trace %s): %w", name, seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: last line of output is not a result: %w", name, err)
	}
	return res, nil
}

// runAll prints every metric of every workload by name with its unit, and
// fails if any correctness check failed.
func runAll(seed uint64, seconds float64, smoke bool) error {
	fmt.Printf("bench -all: seed %d, %s, GOMAXPROCS %d, commit %s\n", seed, runtime.Version(), runtime.GOMAXPROCS(0), commit())
	failed := 0
	for _, w := range allWorkloads(smoke) {
		plain, err := child(w.Name, seed, seconds, false, smoke)
		if err != nil {
			return err
		}
		traced, err := child(w.Name, seed, seconds, true, smoke)
		if err != nil {
			return err
		}
		fmt.Printf("\n== %s ==\n   %s\n", w.Name, w.Why)
		for _, d := range endToEnd {
			printMetric(d, plain.Metrics)
		}
		fmt.Printf("  %-40s %16d\n  %-40s %16d\n", "ops_attempted", plain.Attempted, "ops_failed", plain.Failed)
		tf, err := readTrace(w.Name)
		if err != nil {
			return err
		}
		notExposed := make(map[string]bool)
		for _, n := range tf.NotExposed {
			notExposed[n] = true
		}
		fmt.Printf("  -- per layer (traced run; %d metrics this workload does not expose are omitted)\n", len(notExposed))
		for _, d := range perLayer() {
			if !notExposed[d.Name] {
				printMetric(d, traced.Metrics)
			}
		}
		fmt.Printf("  %-40s %16.6f s\n", "bench.trace_overhead_s", tf.TracedHost-plain.Metrics["host_s"].Value)
		fmt.Printf("  %-40s %16d\n  %-40s %16d\n", "ops_attempted (traced)", traced.Attempted, "ops_failed (traced)", traced.Failed)
		failed += plain.Failed + traced.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func printMetric(d metricDef, m map[string]metricValue) {
	fmt.Printf("  %-40s %16.6f %s\n", d.Name, m[d.Name].Value, d.Unit)
}

func readTrace(name string) (*traceFile, error) {
	b, err := os.ReadFile("out/" + name + ".trace.json")
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return nil, fmt.Errorf("out/%s.trace.json: %w", name, err)
	}
	return &tf, nil
}

// bounds reads the regression bound of every end-to-end metric from
// BENCHMARK.json.
func bounds() (map[string]float64, error) {
	path, err := repoFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := make(map[string]float64)
	for _, m := range file.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is how the driver measures a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runSelfcheck runs two interleaved sets of n untraced runs of the current
// tree per workload, seeds seed..seed+n-1 in both, and compares them the way
// the driver compares a change with its parent: the second set's median may
// not be worse than the first's by more than the metric's bound, and (except
// for setup_s) neither set's interquartile spread may exceed it. It is the
// tool for checking that the benchmark is steady and for retuning bounds.
func runSelfcheck(n int, only string, seed uint64, seconds float64, smoke bool) error {
	bound, err := bounds()
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range allWorkloads(smoke) {
		if only != "" && only != w.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := child(w.Name, seed+uint64(i), seconds, false, smoke)
				if err != nil {
					return err
				}
				if res.Failed > 0 {
					bad++
					fmt.Printf("%s seed %d: %d of %d operations failed\n", w.Name, seed+uint64(i), res.Failed, res.Attempted)
				}
				for k, v := range res.Metrics {
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
		fmt.Printf("\n== %s: two sets of %d runs ==\n", w.Name, n)
		fmt.Printf("  %-20s %14s %14s %9s %9s %9s %7s\n", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			dist := (mb - ma) / ma
			spread := func(xs []float64, m float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / m
			}
			sa, sb := spread(a, ma), spread(b, mb)
			verdict := ""
			if dist > bound[d.Name] || (d.Name != "setup_s" && (sa > bound[d.Name] || sb > bound[d.Name])) {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("  %-20s %14.6f %14.6f %+8.2f%% %8.2f%% %8.2f%% %6.1f%%%s\n",
				d.Name, ma, mb, 100*dist, 100*sa, 100*sb, 100*bound[d.Name], verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs outside their bound or runs with failed operations", bad)
	}
	return nil
}
