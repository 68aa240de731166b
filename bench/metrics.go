package main

import (
	"sort"
)

// metricDef names one metric and its unit. The two catalogues below are the
// single source of the names BENCHMARK.json lists; bench_test.go checks that
// the file and the catalogues agree.
type metricDef struct {
	Name, Unit string
}

// higherIsBetter names the per-layer metrics that are not costs; rates
// (MB/s) are higher-is-better too. Everything else is lower-is-better: less
// CPU, less work, fewer modelled seconds for the same answer.
var higherIsBetter = map[string]bool{
	"host.cpu_util":          true,
	"core.failures_survived": true,
	"kokkos.sdc_detected":    true,
}

// Better is the direction BENCHMARK.json records for the metric.
func (d metricDef) Better() string {
	if higherIsBetter[d.Name] || d.Unit == "MB/s" {
		return "higher"
	}
	return "lower"
}

// endToEnd lists what a user of the simulator sees, measured with tracing
// off. Lower is better for all of them.
var endToEnd = []metricDef{
	{"host_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"virt_wall_s", "s"},
	{"virt_resil_cost_s", "s"},
	{"setup_s", "s"},
}

// cpuLayers are the layers host CPU samples are charged to: the
// repro/internal packages (sim and trace fold into harness, obs/analyze into
// obs) plus the two runtime buckets for samples with no repro frame.
var cpuLayers = []string{
	"mpi", "cluster", "fenix", "kr", "veloc", "kokkos", "obs", "core",
	"apps", "chaos", "harness",
}

const (
	layerGC    = "runtime.gc"
	layerSched = "runtime.sched"
)

// workCounts are the per-layer work counters, in reporting order.
var workCounts = []string{
	"mpi.rank_iters", "mpi.msgs_logged", "mpi.msgs_replayed", "mpi.revokes",
	"mpi.shrinks", "mpi.agreements",
	"fenix.rebuilds", "fenix.spares_activated", "fenix.rehosts", "fenix.imr_checkpoints",
	"kr.regions",
	"veloc.checkpoints", "veloc.checkpoint_sim_bytes", "veloc.restores",
	"veloc.flushes", "veloc.flushes_coalesced", "veloc.flushes_discarded",
	"cluster.flush_reorders",
	"core.job_launches", "core.failures_injected", "core.failures_survived", "core.recompute_iters",
	"kokkos.sdc_detected", "kokkos.sdc_escaped", "kokkos.sdc_replays", "kokkos.sdc_votes",
	"obs.events",
	"chaos.runs", "chaos.violations", "chaos.hangs",
}

// virtLayers are the modelled (virtual) seconds per layer: the paper's
// stacked bars, summed over a unit's jobs.
var virtLayers = []string{
	"apps.virt_compute_s", "mpi.virt_app_mpi_s", "fenix.virt_resil_init_s",
	"veloc.virt_ckpt_func_s", "veloc.virt_data_recovery_s", "core.virt_recompute_s",
	"mpi.virt_other_s", "veloc.virt_flush_wait_s",
}

// probeDefs are the direct probes: loops in this package timing calls into
// one layer's public API.
var probeDefs = []metricDef{
	{"mpi.probe_collective_ns_per_rank_step", "ns"},
	{"mpi.probe_halo_ns_per_msg", "ns"},
	{"cluster.probe_pfs_write_us_first", "us"},
	{"cluster.probe_pfs_write_us_last", "us"},
	{"cluster.probe_flush_submit_us", "us"},
	{"kokkos.probe_stencil_ns_per_cell", "ns"},
	{"kokkos.probe_serialize_mb_s", "MB/s"},
	{"kr.probe_checkpoint_mb_s", "MB/s"},
	{"veloc.probe_checkpoint_mb_s", "MB/s"},
	{"veloc.probe_restart_mb_s", "MB/s"},
	{"obs.probe_emit_ns", "ns"},
	{"obs.probe_emit_off_ns", "ns"},
	{"obs.probe_export_mb_s", "MB/s"},
	{"obs.probe_analyze_us_per_event", "us"},
}

// perLayer returns the full per-layer catalogue in BENCHMARK.json order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".self_cpu_s", "s"})
	}
	out = append(out,
		metricDef{layerGC + "_cpu_s", "s"},
		metricDef{layerSched + "_cpu_s", "s"},
		metricDef{"host.cpu_s", "s"},
		metricDef{"host.cpu_util", "ratio"},
		metricDef{"mpi.host_us_per_rank_iter", "us"},
		metricDef{"harness.fig_max_rel_err", "ratio"},
	)
	for _, n := range workCounts {
		unit := "count"
		if n == "veloc.checkpoint_sim_bytes" {
			unit = "bytes"
		}
		out = append(out, metricDef{n, unit})
	}
	for _, n := range virtLayers {
		out = append(out, metricDef{n, "s"})
	}
	return append(out, probeDefs...)
}

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the reported metric map for defs from vals. A metric the
// workload cannot expose reads 0 and is returned in missing, so the trace
// file can say which zeros are "not exposed" rather than "measured zero".
func fill(defs []metricDef, vals map[string]float64) (out map[string]metricValue, missing []string) {
	out = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	sort.Strings(missing)
	return out, missing
}

// median returns the middle of xs (mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
