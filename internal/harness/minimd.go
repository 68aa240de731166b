package harness

import (
	"math"

	"repro/internal/apps/minimd"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MiniMDPoint is one cell of Figure 6: a (strategy, rank count)
// configuration of the weak-scaled MiniMD run, measured with and without a
// failure.
type MiniMDPoint struct {
	Strategy      core.Strategy
	Ranks         int
	SimSize       int // simulated problem edge in unit cells
	Overhead      trace.Times
	OverheadWall  float64
	FailureTimes  trace.Times
	FailureWall   float64
	FailIteration int
}

// FailureCost is the wall-time cost of the failure.
func (p MiniMDPoint) FailureCost() float64 { return p.FailureWall - p.OverheadWall }

// MiniMDOptions tunes the Figure 6 sweep.
type MiniMDOptions struct {
	Machine *sim.Machine
	// Steps and Interval control checkpoint cadence (defaults 60/10).
	Steps    int
	Interval int
	// AtomsPerRank is the weak-scaling constant: the simulated problem
	// edge for p ranks is chosen so each rank holds ~AtomsPerRank atoms.
	AtomsPerRank int
	Spares       int
	Seed         uint64
}

func (o *MiniMDOptions) normalize() {
	if o.Machine == nil {
		o.Machine = sim.DefaultMachine()
	}
	if o.Steps <= 0 {
		o.Steps = 60
	}
	if o.Interval <= 0 {
		o.Interval = 10
	}
	if o.AtomsPerRank <= 0 {
		o.AtomsPerRank = 500_000
	}
	if o.Spares <= 0 {
		o.Spares = 2
	}
	if o.Seed == 0 {
		o.Seed = 43
	}
}

// weakScaleSize returns the simulated edge (unit cells) so p ranks hold
// ~atomsPerRank each.
func weakScaleSize(p, atomsPerRank int) int {
	return int(math.Round(math.Cbrt(float64(p) * float64(atomsPerRank) / 4)))
}

// MiniMDCell measures one Figure 6 cell.
func MiniMDCell(strategy core.Strategy, ranks int, opts MiniMDOptions) MiniMDPoint {
	opts.normalize()
	cfg := minimd.Config{
		Size:               weakScaleSize(ranks, opts.AtomsPerRank),
		Steps:              opts.Steps,
		CheckpointInterval: opts.Interval,
		NeighborEvery:      10,
		ActualCells:        3,
	}
	pt := MiniMDPoint{
		Strategy:      strategy,
		Ranks:         ranks,
		SimSize:       cfg.Size,
		FailIteration: failIteration(opts.Steps, opts.Interval),
	}

	ovh, fres := figureCell(mpi.JobConfig{Ranks: ranks, Machine: opts.Machine, Seed: opts.Seed},
		core.Config{Strategy: strategy, Spares: opts.Spares, CheckpointInterval: opts.Interval, CheckpointName: "minimd"},
		pt.FailIteration, func() core.App { return minimd.App(cfg, minimd.NewSink()) })
	pt.Overhead, pt.OverheadWall = ovh.TimesWithOther(), ovh.WallTime
	pt.FailureTimes, pt.FailureWall = fres.TimesWithOther(), fres.WallTime
	return pt
}

// Fig6Strategies is the strategy set plotted in Figure 6: the reference
// (no resilience), the relaunch-based KR+VeloC stack, and the paper's
// integrated Fenix framework.
var Fig6Strategies = []core.Strategy{
	core.StrategyNone,
	core.StrategyKRVeloC,
	core.StrategyFenixKRVeloC,
}

// Fig6MiniMD reproduces Figure 6: MiniMD weak scaling over rank counts.
func Fig6MiniMD(ranks []int, opts MiniMDOptions) []MiniMDPoint {
	if len(ranks) == 0 {
		ranks = []int{8, 16, 32, 64}
	}
	var out []MiniMDPoint
	for _, p := range ranks {
		for _, s := range Fig6Strategies {
			out = append(out, MiniMDCell(s, p, opts))
		}
	}
	return out
}
