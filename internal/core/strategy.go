// Package core is the paper's integrated resilience system: it wires the
// process layer (Fenix), the control-flow layer (Kokkos Resilience), and
// the data layer (VeloC or Fenix IMR) into the per-application strategy
// configurations of Section V-A, exposing one uniform Session API so the
// same application code runs under every configuration.
package core

import "fmt"

// Strategy selects one of the resilience configurations evaluated in the
// paper (Figure 1 / Section V-A).
type Strategy int

const (
	// StrategyNone runs without any resilience (the reference).
	StrategyNone Strategy = iota
	// StrategyVeloC uses VeloC alone with hand-written control flow and
	// fail-restart (full job relaunch) recovery.
	StrategyVeloC
	// StrategyKRVeloC uses Kokkos Resilience managing VeloC, without
	// Fenix: failures still require a full job relaunch.
	StrategyKRVeloC
	// StrategyFenixVeloC uses Fenix process recovery with VeloC in
	// non-collective mode and hand-written control flow (no KR).
	StrategyFenixVeloC
	// StrategyFenixKRVeloC is the paper's integrated system: Fenix +
	// Kokkos Resilience + VeloC (non-collective), per Figure 4.
	StrategyFenixKRVeloC
	// StrategyFenixIMR replaces VeloC with Fenix's in-memory redundancy
	// (buddy rank) data policy, managed through Kokkos Resilience.
	StrategyFenixIMR
	// StrategyPartialRollback is Fenix + KR + VeloC where survivors skip
	// checkpoint restoration and keep their in-progress data; only the
	// recovered rank rolls back (for convergence-tolerant applications).
	StrategyPartialRollback
	// StrategyLocalized is Fenix + KR + VeloC with sender-based message
	// logging (DESIGN.md §12): after a failure only the replacement rank
	// rolls back and re-executes, served from the log, while survivors
	// pause in place — no global rollback, and bitwise-identical results.
	StrategyLocalized

	numStrategies
)

// Process is the process-recovery layer a strategy uses.
type Process string

// Control is the control-flow layer: what decides when to checkpoint and
// when to restore.
type Control string

// Data is the data layer that holds checkpoints.
type Data string

// Rollback is how the job returns to a consistent state after a failure.
type Rollback string

// Layer choices, one column each of the strategy table.
const (
	ProcessNone  Process = "none"
	ProcessFenix Process = "fenix" // online process recovery with spares

	ControlNone   Control = "none"
	ControlManual Control = "manual" // hand-written protect/restore/checkpoint
	ControlKR     Control = "kr"     // Kokkos Resilience regions

	DataNone  Data = "none"
	DataVeloC Data = "veloc" // Collective without Fenix, Single with it
	DataIMR   Data = "imr"   // Fenix in-memory redundancy (buddy rank)

	RollbackNone      Rollback = "none"
	RollbackRelaunch  Rollback = "relaunch"  // full job relaunch (fail-restart)
	RollbackGlobal    Rollback = "global"    // every rank restores the checkpoint
	RollbackPartial   Rollback = "partial"   // survivors keep in-progress data
	RollbackLocalized Rollback = "localized" // only the replacement replays, from the message log
)

// Layers is one row of the strategy table: the layer chosen in each
// column.
type Layers struct {
	Name     string
	Process  Process
	Control  Control
	Data     Data
	Rollback Rollback
}

// strategyTable is the single definition of every strategy's layers.
var strategyTable = [numStrategies]Layers{
	StrategyNone:            {"none", ProcessNone, ControlNone, DataNone, RollbackNone},
	StrategyVeloC:           {"veloc", ProcessNone, ControlManual, DataVeloC, RollbackRelaunch},
	StrategyKRVeloC:         {"kr-veloc", ProcessNone, ControlKR, DataVeloC, RollbackRelaunch},
	StrategyFenixVeloC:      {"fenix-veloc", ProcessFenix, ControlManual, DataVeloC, RollbackGlobal},
	StrategyFenixKRVeloC:    {"fenix-kr-veloc", ProcessFenix, ControlKR, DataVeloC, RollbackGlobal},
	StrategyFenixIMR:        {"fenix-imr", ProcessFenix, ControlKR, DataIMR, RollbackGlobal},
	StrategyPartialRollback: {"partial-rollback", ProcessFenix, ControlKR, DataVeloC, RollbackPartial},
	StrategyLocalized:       {"localized", ProcessFenix, ControlKR, DataVeloC, RollbackLocalized},
}

// Layers returns the strategy's row of the layer table.
func (s Strategy) Layers() Layers { return strategyTable[s] }

// String returns the strategy's flag name.
func (s Strategy) String() string {
	if s < 0 || s >= numStrategies {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategyTable[s].Name
}

// ParseStrategy resolves a flag name to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for i, l := range strategyTable {
		if l.Name == name {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q", name)
}

// Strategies returns all strategies in presentation order.
func Strategies() []Strategy {
	out := make([]Strategy, numStrategies)
	for i := range out {
		out[i] = Strategy(i)
	}
	return out
}

// UsesFenix reports whether the strategy recovers processes online.
func (s Strategy) UsesFenix() bool { return s.Layers().Process == ProcessFenix }

// UsesRelaunch reports whether failures are recovered by relaunching the
// whole job (classic checkpoint/restart).
func (s Strategy) UsesRelaunch() bool { return s.Layers().Rollback == RollbackRelaunch }

// Checkpoints reports whether the strategy writes checkpoints at all.
func (s Strategy) Checkpoints() bool { return s.Layers().Data != DataNone }
