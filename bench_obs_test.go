// Observability-overhead benchmarks: the same failure-injected Heatdis
// cell with recording disabled (nil recorder) and enabled. Comparing ns/op
// across the two isolates the host-side cost of the instrumentation;
// events/op sizes the log.
//
// Run with: go test -bench 'BenchmarkHeatdisObs' -benchtime 10x .
package repro_test

import (
	"testing"

	"repro/internal/apps/heatdis"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// benchObsCell runs one failure-injected Heatdis job (8 ranks + 1 spare,
// 64 MB/rank, 6 checkpoint generations, kill at iteration 28) with the
// given recorder.
func benchObsCell(b *testing.B, rec *obs.Recorder) *core.Result {
	b.Helper()
	const (
		ranks    = 8
		iters    = 30
		interval = 5
	)
	cfg := heatdis.Config{
		BytesPerRank:       64 << 20,
		Iterations:         iters,
		CheckpointInterval: interval,
	}
	cc := core.Config{
		Strategy:           core.StrategyFenixKRVeloC,
		Spares:             1,
		CheckpointInterval: interval,
		CheckpointName:     "heatdis",
		Failures:           []*core.FailurePlan{{Slot: 1, Iteration: 28}},
	}
	res := core.Run(mpi.JobConfig{
		Ranks: ranks + 1, Machine: sim.DefaultMachine(), Seed: 42,
		Obs: rec,
	}, cc, heatdis.App(cfg, heatdis.NewSink()))
	if res.Failed || res.Err() != nil {
		b.Fatalf("heatdis cell failed: %v", res.Err())
	}
	return res
}

// BenchmarkHeatdisObsOff is the baseline: the nil-recorder no-op path
// through every instrumentation site.
func BenchmarkHeatdisObsOff(b *testing.B) {
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = benchObsCell(b, nil)
	}
	b.ReportMetric(res.WallTime, "virtwall_s")
}

// BenchmarkHeatdisObsOn records the full event log and metrics in memory.
func BenchmarkHeatdisObsOn(b *testing.B) {
	var rec *obs.Recorder
	var res *core.Result
	for i := 0; i < b.N; i++ {
		rec = obs.New()
		res = benchObsCell(b, rec)
	}
	b.ReportMetric(res.WallTime, "virtwall_s")
	b.ReportMetric(float64(rec.Len()), "events/op")
}
