package core

import (
	"sync"
	"testing"

	"repro/internal/fenix"
	"repro/internal/kokkos"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

func quietMachine() *sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseAmplitude = 0
	return m
}

// miniApp is a tiny deterministic iterative solver: each rank holds a
// vector, every iteration adds a neighbour-dependent increment obtained
// via an allreduce. Its final state is a pure function of (ranks, iters),
// so recovery correctness is checked by comparing against a failure-free
// run bit for bit.
func miniApp(iters, vecLen int, sink *resultSink) App {
	return func(s *Session) error {
		// Reuse survivor state only when a checkpoint realigns it at the
		// resume iteration; a failure before the first checkpoint means
		// every rank starts over (the application contract).
		resume := s.ResumeIteration()
		var x *kokkos.F64View
		if v, ok := s.Store["x"]; ok && resume >= 0 {
			x = v.(*kokkos.F64View)
		} else {
			x = kokkos.NewF64("x", vecLen)
			for i := 0; i < vecLen; i++ {
				x.Set(i, float64(s.Rank()*vecLen+i))
			}
			s.Store["x"] = x
		}
		views := []kokkos.View{x}

		start := 0
		if resume >= 0 {
			start = resume
		}
		for i := start; i < iters; i++ {
			err := s.Checkpoint("loop", i, views, func() error {
				s.Proc().ComputeExact(float64(vecLen) * 100)
				sum, err := s.Comm().AllreduceF64(s.Proc(), []float64{x.At(0)}, mpi.OpSum)
				if err != nil {
					return err
				}
				for j := 0; j < vecLen; j++ {
					x.Set(j, x.At(j)+sum[0]*1e-3+float64(j))
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		sink.put(s.Rank(), append([]float64(nil), x.Data()...))
		return nil
	}
}

// resultSink collects final per-logical-rank vectors.
type resultSink struct {
	mu   sync.Mutex
	data map[int][]float64
}

func newSink() *resultSink { return &resultSink{data: make(map[int][]float64)} }

func (r *resultSink) put(rank int, v []float64) {
	r.mu.Lock()
	r.data[rank] = v
	r.mu.Unlock()
}

func (r *resultSink) get(rank int) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.data[rank]
}

const (
	tIters  = 20
	tVecLen = 16
	tRanks  = 4
)

func runStrategy(t *testing.T, strat Strategy, spares int, fail *FailurePlan) (*Result, *resultSink) {
	t.Helper()
	sink := newSink()
	cfg := Config{
		Strategy:           strat,
		Spares:             spares,
		CheckpointInterval: 5,
		CheckpointName:     "mini",
	}
	if fail != nil {
		cfg.Failures = []*FailurePlan{fail}
	}
	job := mpi.JobConfig{Ranks: tRanks + spares, Machine: quietMachine(), Seed: 7}
	res := Run(job, cfg, miniApp(tIters, tVecLen, sink))
	return res, sink
}

// reference computes the failure-free result per rank.
func reference(t *testing.T) map[int][]float64 {
	t.Helper()
	res, sink := runStrategy(t, StrategyNone, 0, nil)
	if res.Failed || res.Err() != nil {
		t.Fatalf("reference run failed: %v", res.Err())
	}
	out := make(map[int][]float64)
	for r := 0; r < tRanks; r++ {
		out[r] = sink.get(r)
		if out[r] == nil {
			t.Fatalf("reference rank %d missing", r)
		}
	}
	return out
}

func checkMatchesReference(t *testing.T, sink *resultSink, ref map[int][]float64) {
	t.Helper()
	for r := 0; r < tRanks; r++ {
		got := sink.get(r)
		if got == nil {
			t.Fatalf("rank %d produced no result", r)
		}
		for j := range ref[r] {
			if got[j] != ref[r][j] {
				t.Fatalf("rank %d element %d: got %v want %v (not bitwise identical)", r, j, got[j], ref[r][j])
			}
		}
	}
}

func TestAllStrategiesFailureFree(t *testing.T) {
	ref := reference(t)
	for _, strat := range Strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			spares := 0
			if strat.UsesFenix() {
				spares = 1
			}
			res, sink := runStrategy(t, strat, spares, nil)
			if res.Failed || res.Err() != nil {
				t.Fatalf("run failed: %v", res.Err())
			}
			if res.Launches != 1 {
				t.Fatalf("failure-free run launched %d times", res.Launches)
			}
			checkMatchesReference(t, sink, ref)
		})
	}
}

func TestRecoveryBitwiseIdentical(t *testing.T) {
	ref := reference(t)
	// Every strategy that restores all ranks must reproduce the reference
	// exactly despite an injected failure. Partial rollback is exempt by
	// design (survivors keep newer data), and StrategyNone cannot recover.
	for _, strat := range []Strategy{StrategyVeloC, StrategyKRVeloC, StrategyFenixVeloC, StrategyFenixKRVeloC, StrategyFenixIMR} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			spares := 0
			if strat.UsesFenix() {
				spares = 1
			}
			// Fail logical rank 1 at ~95% between checkpoints 1 and 2
			// (interval 5 -> checkpoints at iters 4, 9, 14, 19; fail at 13).
			fail := &FailurePlan{Slot: 1, Iteration: 13}
			res, sink := runStrategy(t, strat, spares, fail)
			if res.Failed || res.Err() != nil {
				t.Fatalf("run failed: %v (launches=%d)", res.Err(), res.Launches)
			}
			if !fail.Fired() {
				t.Fatal("failure plan never fired")
			}
			if strat.UsesRelaunch() && res.Launches != 2 {
				t.Fatalf("relaunch strategy launched %d times", res.Launches)
			}
			if strat.UsesFenix() && res.Launches != 1 {
				t.Fatalf("Fenix strategy launched %d times", res.Launches)
			}
			checkMatchesReference(t, sink, ref)
		})
	}
}

func TestFailureCostIncludesRecompute(t *testing.T) {
	fail := &FailurePlan{Slot: 1, Iteration: 13}
	res, _ := runStrategy(t, StrategyFenixKRVeloC, 1, fail)
	if res.Failed {
		t.Fatal("run failed")
	}
	mean := res.MeanAppTimes()
	if mean.Get(trace.Recompute) <= 0 {
		t.Fatal("no recompute time recorded after failure")
	}
	if mean.Get(trace.DataRecovery) <= 0 {
		t.Fatal("no data recovery time recorded after failure")
	}
}

func TestNoRecomputeWithoutFailure(t *testing.T) {
	res, _ := runStrategy(t, StrategyFenixKRVeloC, 1, nil)
	if got := res.MeanAppTimes().Get(trace.Recompute); got != 0 {
		t.Fatalf("failure-free run recorded %v recompute", got)
	}
}

func TestFenixAvoidsRelaunchCost(t *testing.T) {
	fail1 := &FailurePlan{Slot: 1, Iteration: 13}
	fenixRes, _ := runStrategy(t, StrategyFenixKRVeloC, 1, fail1)
	fail2 := &FailurePlan{Slot: 1, Iteration: 13}
	relaunchRes, _ := runStrategy(t, StrategyKRVeloC, 0, fail2)
	if fenixRes.Failed || relaunchRes.Failed {
		t.Fatal("runs failed")
	}
	fOther := fenixRes.TimesWithOther().Get(trace.Other)
	rOther := relaunchRes.TimesWithOther().Get(trace.Other)
	if fOther >= rOther {
		t.Fatalf("Fenix Other (%v) not below relaunch Other (%v)", fOther, rOther)
	}
}

func TestPartialRollbackSurvivorsKeepData(t *testing.T) {
	// Under partial rollback the survivors' results differ from the
	// reference (they never rolled back), while the job still completes.
	ref := reference(t)
	fail := &FailurePlan{Slot: 1, Iteration: 13}
	res, sink := runStrategy(t, StrategyPartialRollback, 1, fail)
	if res.Failed || res.Err() != nil {
		t.Fatalf("run failed: %v", res.Err())
	}
	diverged := false
	for r := 0; r < tRanks; r++ {
		got := sink.get(r)
		if got == nil {
			t.Fatalf("rank %d missing", r)
		}
		for j := range got {
			if got[j] != ref[r][j] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("partial rollback produced the fully-rolled-back result; survivors should have kept newer data")
	}
}

func TestStrategyParseRoundTrip(t *testing.T) {
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

// TestStrategyPredicates checks every strategy's layer row against the
// paper's configurations, and the three predicates the harness and the
// benchmark read against that row.
func TestStrategyPredicates(t *testing.T) {
	want := map[Strategy]Layers{
		StrategyNone:            {"none", ProcessNone, ControlNone, DataNone, RollbackNone},
		StrategyVeloC:           {"veloc", ProcessNone, ControlManual, DataVeloC, RollbackRelaunch},
		StrategyKRVeloC:         {"kr-veloc", ProcessNone, ControlKR, DataVeloC, RollbackRelaunch},
		StrategyFenixVeloC:      {"fenix-veloc", ProcessFenix, ControlManual, DataVeloC, RollbackGlobal},
		StrategyFenixKRVeloC:    {"fenix-kr-veloc", ProcessFenix, ControlKR, DataVeloC, RollbackGlobal},
		StrategyFenixIMR:        {"fenix-imr", ProcessFenix, ControlKR, DataIMR, RollbackGlobal},
		StrategyPartialRollback: {"partial-rollback", ProcessFenix, ControlKR, DataVeloC, RollbackPartial},
		StrategyLocalized:       {"localized", ProcessFenix, ControlKR, DataVeloC, RollbackLocalized},
	}
	if len(want) != len(Strategies()) {
		t.Fatalf("%d strategies, table expects %d", len(Strategies()), len(want))
	}
	for _, s := range Strategies() {
		l := s.Layers()
		if l != want[s] {
			t.Errorf("%v: layers %+v, want %+v", s, l, want[s])
		}
		if l.Name != s.String() {
			t.Errorf("%v: row name %q", s, l.Name)
		}
		if s.UsesFenix() != (l.Process == ProcessFenix) ||
			s.UsesRelaunch() != (l.Rollback == RollbackRelaunch) ||
			s.Checkpoints() != (l.Data != DataNone) {
			t.Errorf("%v: predicates disagree with %+v", s, l)
		}
		// Online rollback modes need Fenix; relaunch needs its absence.
		online := l.Rollback == RollbackGlobal || l.Rollback == RollbackPartial || l.Rollback == RollbackLocalized
		if online != s.UsesFenix() {
			t.Errorf("%v: rollback %q with process %q", s, l.Rollback, l.Process)
		}
		// A data layer needs control flow driving it, and vice versa.
		if (l.Data == DataNone) != (l.Control == ControlNone) {
			t.Errorf("%v: data %q with control %q", s, l.Data, l.Control)
		}
	}
}

func TestSparesRejectedWithoutFenix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("spares without Fenix accepted")
		}
	}()
	runStrategy(t, StrategyVeloC, 1, nil)
}

func TestRoleVisibleToApp(t *testing.T) {
	var mu sync.Mutex
	roles := map[int][]fenix.Role{}
	cfg := Config{Strategy: StrategyFenixKRVeloC, Spares: 1, CheckpointInterval: 5, CheckpointName: "r",
		Failures: []*FailurePlan{{Slot: 0, Iteration: 7}}}
	job := mpi.JobConfig{Ranks: 3, Machine: quietMachine(), Seed: 3}
	sink := newSink()
	inner := miniApp(tIters, 4, sink)
	res := Run(job, cfg, func(s *Session) error {
		mu.Lock()
		roles[s.Proc().Rank()] = append(roles[s.Proc().Rank()], s.Role())
		mu.Unlock()
		return inner(s)
	})
	if res.Failed {
		t.Fatalf("failed: %v", res.Err())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(roles[1]) != 2 || roles[1][1] != fenix.RoleSurvivor {
		t.Fatalf("rank 1 roles %v", roles[1])
	}
	if len(roles[2]) != 1 || roles[2][0] != fenix.RoleRecovered {
		t.Fatalf("spare roles %v", roles[2])
	}
}

func TestSessionAccessors(t *testing.T) {
	cfg := Config{Strategy: StrategyFenixKRVeloC, Spares: 1, CheckpointInterval: 5, CheckpointName: "acc"}
	job := mpi.JobConfig{Ranks: 3, Machine: quietMachine(), Seed: 9}
	res := Run(job, cfg, func(s *Session) error {
		if s.Size() != 2 {
			t.Errorf("Size = %d", s.Size())
		}
		if s.Strategy() != StrategyFenixKRVeloC {
			t.Errorf("Strategy = %v", s.Strategy())
		}
		if err := s.Check(nil); err != nil {
			t.Errorf("Check(nil) = %v", err)
		}
		s.DeclareAliases("a", "b") // must not panic with KR
		x := kokkos.NewF64("a", 2)
		y := kokkos.NewF64("b", 2)
		if err := s.Checkpoint("r", 0, []kokkos.View{x, y}, func() error { return nil }); err != nil {
			return err
		}
		if _, al, _ := s.Census().Counts(); al != 1 {
			t.Errorf("alias count %d", al)
		}
		return nil
	})
	if res.Failed {
		t.Fatalf("failed: %v", res.Err())
	}
}

func TestSessionAccessorsNoKR(t *testing.T) {
	cfg := Config{Strategy: StrategyNone, CheckpointInterval: 5}
	job := mpi.JobConfig{Ranks: 1, Machine: quietMachine(), Seed: 9}
	res := Run(job, cfg, func(s *Session) error {
		s.DeclareAliases("a", "b") // no-op without KR or manual
		if s.Census().TotalViews() != 0 {
			t.Error("census non-empty without KR")
		}
		if s.ResumeIteration() != -1 {
			t.Error("fresh resume != -1")
		}
		return nil
	})
	if res.Failed {
		t.Fatal("failed")
	}
}
