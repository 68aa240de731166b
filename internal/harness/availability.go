package harness

import (
	"math"

	"repro/internal/apps/heatdis"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// This file adds the availability study motivated by the paper's
// introduction: the Blue Waters analysis found node failures every 4.2
// hours and ~9% of production hours lost. Here, long-running jobs are
// subjected to Poisson failures at a configurable MTBF and each strategy's
// *efficiency* — ideal failure-free time over actual wall time — is
// measured, quantifying how much machine the resilience stack gives back.

// OptimalInterval returns Young's approximation of the optimal checkpoint
// interval (in iterations) given the per-checkpoint cost, the
// per-iteration time, and the system MTBF, all in virtual seconds:
// T_opt = sqrt(2 * C * MTBF).
func OptimalInterval(ckptCost, iterTime, mtbf float64) int {
	if ckptCost <= 0 || iterTime <= 0 || mtbf <= 0 {
		return 1
	}
	t := math.Sqrt(2 * ckptCost * mtbf)
	n := int(math.Round(t / iterTime))
	if n < 1 {
		n = 1
	}
	return n
}

// AvailabilityPoint is one strategy's outcome under a failure process.
type AvailabilityPoint struct {
	Strategy   core.Strategy
	MTBF       float64 // virtual seconds
	Failures   int     // injected failures
	IdealWall  float64 // failure-free wall time
	ActualWall float64
	Efficiency float64 // IdealWall / ActualWall
	Completed  bool
}

// AvailabilityOptions configures the study.
type AvailabilityOptions struct {
	Machine *sim.Machine
	// Ranks is the application rank count.
	Ranks int
	// Iterations is the job length; longer jobs see more failures.
	Iterations int
	// Interval is the checkpoint cadence.
	Interval int
	// BytesPerRank is the Heatdis data size.
	BytesPerRank int
	// MTBF is the system mean time between failures in virtual seconds.
	MTBF float64
	// Seed drives both jitter and the failure process.
	Seed uint64
}

func (o *AvailabilityOptions) normalize() {
	if o.Machine == nil {
		o.Machine = sim.DefaultMachine()
	}
	if o.Ranks <= 0 {
		o.Ranks = 16
	}
	if o.Iterations <= 0 {
		o.Iterations = 300
	}
	if o.Interval <= 0 {
		o.Interval = 10
	}
	if o.BytesPerRank <= 0 {
		o.BytesPerRank = 256 * MB
	}
	if o.MTBF <= 0 {
		o.MTBF = 600
	}
	if o.Seed == 0 {
		o.Seed = 99
	}
}

// drawFailures samples a Poisson failure process over the job: exponential
// inter-arrival times at the given MTBF, mapped to (slot, iteration)
// injection points using the estimated per-iteration time. Failures
// falling on the same iteration are pushed apart; at most one failure per
// checkpoint interval keeps the study in the paper's regime (flush
// complete before the failure).
func drawFailures(o *AvailabilityOptions, iterTime float64) []*core.FailurePlan {
	rng := sim.NewRNG(o.Seed).Split(7)
	var plans []*core.FailurePlan
	t := 0.0
	horizon := float64(o.Iterations) * iterTime
	usedIntervals := map[int]bool{}
	for {
		// Exponential(MTBF) via inverse CDF.
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		t += -o.MTBF * math.Log(1-u)
		if t >= horizon {
			return plans
		}
		iter := int(t / iterTime)
		if iter >= o.Iterations {
			return plans
		}
		intv := iter / o.Interval
		if usedIntervals[intv] || intv == 0 {
			continue // one failure per interval; never before first checkpoint
		}
		usedIntervals[intv] = true
		slot := rng.Intn(o.Ranks)
		plans = append(plans, &core.FailurePlan{Slot: slot, Iteration: iter})
	}
}

// AvailabilityStudy measures each strategy's efficiency under the failure
// process. Fenix strategies get one spare per injected failure; relaunch
// strategies get unlimited restarts.
func AvailabilityStudy(strategies []core.Strategy, opts AvailabilityOptions) []AvailabilityPoint {
	opts.normalize()
	if len(strategies) == 0 {
		strategies = []core.Strategy{core.StrategyKRVeloC, core.StrategyFenixKRVeloC, core.StrategyFenixIMR}
	}
	cfg := heatdis.Config{
		BytesPerRank:       opts.BytesPerRank,
		Iterations:         opts.Iterations,
		CheckpointInterval: opts.Interval,
		ActualRows:         8,
		ActualCols:         16,
	}
	// Estimate per-iteration virtual time from the simulated stencil cost.
	iterTime := opts.Machine.ComputeTime(30 * float64(cfg.SimRows()) * 4096)

	var out []AvailabilityPoint
	for _, strat := range strategies {
		plans := drawFailures(&opts, iterTime)
		// Fresh plan copies per strategy (plans are one-shot).
		mine := make([]*core.FailurePlan, len(plans))
		for i, fp := range plans {
			mine[i] = &core.FailurePlan{Slot: fp.Slot, Iteration: fp.Iteration}
		}
		spares := 0
		if strat.UsesFenix() {
			spares = len(mine) + 1
			if (opts.Ranks+spares)%2 != (opts.Ranks)%2 && strat.Layers().Data == core.DataIMR {
				spares++ // keep resilient comm even for buddy pairing
			}
		}
		run := func(failures []*core.FailurePlan) *core.Result {
			cc := core.Config{
				Strategy:           strat,
				Spares:             spares,
				CheckpointInterval: opts.Interval,
				CheckpointName:     "avail",
				MaxRestarts:        len(mine) + 2,
				Failures:           failures,
			}
			sink := heatdis.NewSink()
			return core.Run(mpi.JobConfig{Ranks: opts.Ranks + spares, Machine: opts.Machine, Seed: opts.Seed},
				cc, heatdis.App(cfg, sink))
		}
		ideal := run(nil)
		actual := run(mine)
		out = append(out, AvailabilityPoint{
			Strategy:   strat,
			MTBF:       opts.MTBF,
			Failures:   len(mine),
			IdealWall:  ideal.WallTime,
			ActualWall: actual.WallTime,
			Efficiency: ideal.WallTime / actual.WallTime,
			Completed:  !actual.Failed,
		})
	}
	return out
}
