// Package harness runs the paper's experiments: every figure of the
// evaluation section (Figures 5, 6, 7) plus the Section VI-E complexity
// census, each as a parameter sweep over the strategy configurations of
// internal/core, and renders the results as text tables.
//
// Per the paper's protocol (Section VI-C): each configuration is run with
// and without an injected failure; the failure kills one rank ~95% of the
// way between two checkpoints (so asynchronous flushes have completed);
// and wall time is measured around the whole job (`time mpirun`), with
// "Other" derived as wall time minus the in-application categories.
package harness

import (
	"sync"

	"repro/internal/apps/heatdis"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MB is 2^20 bytes.
const MB = 1 << 20

// GB is 2^30 bytes.
const GB = 1 << 30

// HeatdisPoint is one cell of Figure 5: a (strategy, node count, data
// size) configuration measured with and without a failure.
type HeatdisPoint struct {
	Strategy      core.Strategy
	Nodes         int
	BytesPerRank  int
	Overhead      trace.Times // mean per-rank categories, failure-free, Other derived
	OverheadWall  float64
	FailureTimes  trace.Times // mean per-rank categories with one failure
	FailureWall   float64
	Iterations    int
	FailIteration int
}

// FailureCost is the wall-time cost of the failure: the paper's top panel.
func (p HeatdisPoint) FailureCost() float64 { return p.FailureWall - p.OverheadWall }

// HeatdisOptions tunes the sweep.
type HeatdisOptions struct {
	// Machine overrides the cost model (default sim.DefaultMachine).
	Machine *sim.Machine
	// Iterations and Interval control checkpoint cadence (defaults: 60
	// iterations, interval 10 -> 6 checkpoints, as in the paper).
	Iterations int
	Interval   int
	// Spares for Fenix strategies (default 2, keeping the resilient
	// communicator even for IMR buddy pairing).
	Spares int
	// Seed for deterministic jitter.
	Seed uint64
	// ActualRows/ActualCols size the real per-rank grid.
	ActualRows, ActualCols int
	// ConvergenceEpsilon for the partial-rollback variant.
	ConvergenceEpsilon float64
}

func (o *HeatdisOptions) normalize() {
	if o.Machine == nil {
		o.Machine = sim.DefaultMachine()
	}
	if o.Iterations <= 0 {
		o.Iterations = 60
	}
	if o.Interval <= 0 {
		o.Interval = 10
	}
	if o.Spares <= 0 {
		o.Spares = 2
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.ActualRows <= 0 {
		o.ActualRows = 16
	}
	if o.ActualCols <= 0 {
		o.ActualCols = 32
	}
	if o.ConvergenceEpsilon <= 0 {
		o.ConvergenceEpsilon = 0.05
	}
}

// failIteration places the injected failure ~95% of the way between the
// second-to-last and last checkpoints: with interval k and n iterations,
// checkpoints land at k-1, 2k-1, ...; the failure hits after the
// penultimate checkpoint at 95% of the following interval.
func failIteration(iterations, interval int) int {
	lastCkpt := (iterations/interval)*interval - 1 // final checkpoint iter
	prev := lastCkpt - interval
	return prev + int(0.95*float64(interval))
}

// figureCell runs one Figure 5/6 cell's job pair: fault-free, then, for
// strategies that checkpoint, with logical rank 1 killed before iteration
// failIter (otherwise the fault-free run stands for both). Fenix strategies
// run with cc.Spares extra ranks; newApp builds each run's application.
func figureCell(job mpi.JobConfig, cc core.Config, failIter int, newApp func() core.App) (ovh, fail *core.Result) {
	if !cc.Strategy.UsesFenix() {
		cc.Spares = 0
	}
	job.Ranks += cc.Spares
	ovh = core.Run(job, cc, newApp())
	if !cc.Strategy.Checkpoints() {
		return ovh, ovh
	}
	cc.Failures = []*core.FailurePlan{{Slot: 1, Iteration: failIter}}
	return ovh, core.Run(job, cc, newApp())
}

// epsCache memoizes convergence-threshold calibrations, keyed by the
// parameters the residual trajectory actually depends on (the real grid
// and rank count, not the simulated data size).
var epsCache sync.Map // epsKey -> float64

type epsKey struct{ rows, cols, nodes, iters int }

// calibrateEpsilon runs the fixed-iteration reference once and returns a
// threshold slightly above its final residual, so the convergence variant
// terminates after approximately the same number of iterations.
func calibrateEpsilon(cfg heatdis.Config, nodes int, opts HeatdisOptions) float64 {
	key := epsKey{cfg.ActualRows, cfg.ActualCols, nodes, opts.Iterations}
	if v, ok := epsCache.Load(key); ok {
		return v.(float64)
	}
	probe := cfg
	probe.Convergence = false
	probe.Iterations = opts.Iterations
	sink := heatdis.NewSink()
	res := core.Run(mpi.JobConfig{Ranks: nodes, Machine: opts.Machine, Seed: opts.Seed},
		core.Config{Strategy: core.StrategyNone, CheckpointInterval: opts.Interval},
		heatdis.App(probe, sink))
	eps := opts.ConvergenceEpsilon
	if !res.Failed {
		if r, ok := sink.Get(0); ok && r.Delta > 0 {
			eps = r.Delta * 1.001
		}
	}
	epsCache.Store(key, eps)
	return eps
}

// HeatdisCell measures one Figure 5 cell.
func HeatdisCell(strategy core.Strategy, nodes, bytesPerRank int, opts HeatdisOptions) HeatdisPoint {
	opts.normalize()
	cfg := heatdis.Config{
		BytesPerRank:       bytesPerRank,
		Iterations:         opts.Iterations,
		CheckpointInterval: opts.Interval,
		ActualRows:         opts.ActualRows,
		ActualCols:         opts.ActualCols,
	}
	if strategy.Layers().Rollback == core.RollbackPartial {
		// The partial-rollback demonstration uses the convergence variant.
		// Calibrate epsilon so the failure-free convergence run lasts about
		// as long as the fixed-iteration runs, keeping the Figure 5 bars
		// comparable across strategies.
		cfg.Convergence = true
		cfg.Epsilon = calibrateEpsilon(cfg, nodes, opts)
		cfg.MaxIterations = 20 * opts.Iterations
	}

	pt := HeatdisPoint{
		Strategy:      strategy,
		Nodes:         nodes,
		BytesPerRank:  bytesPerRank,
		Iterations:    opts.Iterations,
		FailIteration: failIteration(opts.Iterations, opts.Interval),
	}

	ovh, fres := figureCell(mpi.JobConfig{Ranks: nodes, Machine: opts.Machine, Seed: opts.Seed},
		core.Config{Strategy: strategy, Spares: opts.Spares, CheckpointInterval: opts.Interval, CheckpointName: "heatdis"},
		pt.FailIteration, func() core.App { return heatdis.App(cfg, heatdis.NewSink()) })
	pt.Overhead, pt.OverheadWall = ovh.TimesWithOther(), ovh.WallTime
	pt.FailureTimes, pt.FailureWall = fres.TimesWithOther(), fres.WallTime
	return pt
}

// Fig5Strategies is the strategy set plotted in Figure 5.
var Fig5Strategies = []core.Strategy{
	core.StrategyNone,
	core.StrategyVeloC,
	core.StrategyKRVeloC,
	core.StrategyFenixVeloC,
	core.StrategyFenixKRVeloC,
	core.StrategyFenixIMR,
	core.StrategyPartialRollback,
}

// Fig5DataScaling reproduces the left panel of Figure 5: 64 ranks (one
// per node), checkpointed data size swept over sizesMB megabytes per rank.
func Fig5DataScaling(sizesMB []int, opts HeatdisOptions) []HeatdisPoint {
	if len(sizesMB) == 0 {
		sizesMB = []int{64, 256, 1024, 4096}
	}
	var out []HeatdisPoint
	for _, mb := range sizesMB {
		for _, s := range Fig5Strategies {
			out = append(out, HeatdisCell(s, 64, mb*MB, opts))
		}
	}
	return out
}

// Fig5WeakScaling reproduces the right panel of Figure 5: 1 GB of data
// per rank, node count swept.
func Fig5WeakScaling(nodes []int, opts HeatdisOptions) []HeatdisPoint {
	if len(nodes) == 0 {
		nodes = []int{4, 8, 16, 32, 64}
	}
	var out []HeatdisPoint
	for _, n := range nodes {
		for _, s := range Fig5Strategies {
			out = append(out, HeatdisCell(s, n, 1*GB, opts))
		}
	}
	return out
}
