package core_test

import (
	"runtime"
	"testing"

	"repro/internal/apps/heatdis"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestHaloAllocBudget pins the marginal allocations per rank-iteration of
// a failure-free heatdis job (16 ranks, 64 KiB per rank, checkpoint
// interval 10): a 120-iteration job minus a 20-iteration one, so job
// set-up cancels, divided by 16 ranks x 100 iterations. MemStats counts
// process-wide, so each budget takes the least of three pairs. The halo
// rows are one allocation each, the message itself: the mailbox, the
// message log and the receiver read it in place.
func TestHaloAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are not the halo path's")
	}
	const ranks, long, short = 16, 120, 20
	m := sim.DefaultMachine()
	m.NoiseAmplitude = 0
	run := func(strat core.Strategy, iters int) (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := core.Run(mpi.JobConfig{Ranks: ranks, Machine: m, Seed: 1},
			core.Config{Strategy: strat, CheckpointInterval: 10, CheckpointName: "budget"},
			heatdis.App(heatdis.Config{BytesPerRank: 64 << 10, Iterations: iters, CheckpointInterval: 10}, heatdis.NewSink()))
		runtime.ReadMemStats(&after)
		if res.Failed || res.Err() != nil {
			t.Fatalf("%v: %d-iteration job failed: %v", strat, iters, res.Err())
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	for _, b := range []struct {
		strat         core.Strategy
		allocs, bytes float64
	}{
		{core.StrategyNone, 2.2, 1150},
		{core.StrategyFenixKRVeloC, 5.2, 3200},
		{core.StrategyLocalized, 6.4, 3450},
	} {
		leastAllocs, leastBytes := ^uint64(0), ^uint64(0)
		for i := 0; i < 3; i++ {
			la, lb := run(b.strat, long)
			sa, sb := run(b.strat, short)
			leastAllocs, leastBytes = min(leastAllocs, la-sa), min(leastBytes, lb-sb)
		}
		per := float64(ranks * (long - short))
		allocs, bytes := float64(leastAllocs)/per, float64(leastBytes)/per
		t.Logf("%v: %.2f allocs, %.0f B per rank-iteration", b.strat, allocs, bytes)
		if allocs > b.allocs || bytes > b.bytes {
			t.Errorf("%v: %.2f allocs and %.0f B per rank-iteration, budget %.1f allocs and %.0f B", b.strat, allocs, bytes, b.allocs, b.bytes)
		}
	}
}
