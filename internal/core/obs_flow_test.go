package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// TestObsFailureEventOrdering runs the integrated stack with an injected
// failure and asserts the observability stream tells the recovery story in
// causal order: failure injection → detection → revoke → Fenix rebuild →
// spare activation → checkpoint restore → recompute.
func TestObsFailureEventOrdering(t *testing.T) {
	rec := obs.New()
	sink := newSink()
	failIter := 18 // ~95% between the last two checkpoints (interval 5)
	cfg := Config{
		Strategy:           StrategyFenixKRVeloC,
		Spares:             1,
		CheckpointInterval: 5,
		CheckpointName:     "mini",
		Failures:           []*FailurePlan{{Slot: 1, Iteration: failIter}},
	}
	job := mpi.JobConfig{Ranks: tRanks + 1, Machine: quietMachine(), Seed: 7, Obs: rec}
	res := Run(job, cfg, miniApp(tIters, tVecLen, sink))
	if res.Failed || res.Err() != nil {
		t.Fatalf("run failed: %v", res.Err())
	}

	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}

	// The sorted log must be non-decreasing in (time, rank, seq) — rank
	// breaks same-instant ties between causally unordered emitters, seq is
	// the within-rank causal order — and every name must come from the
	// documented taxonomy.
	known := map[string]bool{}
	for _, n := range obs.EventNames() {
		known[n] = true
	}
	for i, e := range events {
		if !known[e.Name] {
			t.Errorf("undocumented event name %q", e.Name)
		}
		if i > 0 {
			prev := events[i-1]
			if e.Time < prev.Time ||
				(e.Time == prev.Time && e.Rank < prev.Rank) ||
				(e.Time == prev.Time && e.Rank == prev.Rank && e.Seq < prev.Seq) {
				t.Fatalf("event %d out of order: (%v,r%d,%d) after (%v,r%d,%d)",
					i, e.Time, e.Rank, e.Seq, prev.Time, prev.Rank, prev.Seq)
			}
		}
	}

	// Index of the first occurrence of each name in the ordered stream.
	first := map[string]int{}
	count := map[string]int{}
	for i, e := range events {
		if _, ok := first[e.Name]; !ok {
			first[e.Name] = i
		}
		count[e.Name]++
	}
	need := func(name string) int {
		t.Helper()
		i, ok := first[name]
		if !ok {
			t.Fatalf("event %s never emitted", name)
		}
		return i
	}

	// Recovery-only events must not predate the failure, so their first
	// occurrences order the whole episode.
	chain := []string{
		obs.EvFailureInjected,
		obs.EvFailureDetected,
		obs.EvRevoke,
		obs.EvFenixRebuild,
		obs.EvKRRestoreBegin,
		obs.EvVeloCRestart,
		obs.EvKRRestoreEnd,
	}
	for i := 1; i < len(chain); i++ {
		if need(chain[i-1]) >= need(chain[i]) {
			t.Errorf("causal order violated: %s (index %d) should precede %s (index %d)",
				chain[i-1], first[chain[i-1]], chain[i], first[chain[i]])
		}
	}
	if need(obs.EvRecomputeBegin) <= need(obs.EvFenixRebuild) {
		t.Errorf("recompute (index %d) should follow the rebuild (index %d)",
			first[obs.EvRecomputeBegin], first[obs.EvFenixRebuild])
	}
	if count[obs.EvRecomputeEnd] == 0 {
		t.Error("no recompute_end events")
	}

	// The spare's promotion must be visible and carry the failed slot.
	promoted := false
	for _, e := range events {
		if e.Name != obs.EvFenixRoleChange {
			continue
		}
		attrs := map[string]any{}
		for _, a := range e.Attrs {
			attrs[a.Key] = a.Value
		}
		if attrs["to"] == "recovered" {
			promoted = true
			if attrs["logical_rank"] != 1 {
				t.Errorf("recovered rank adopted logical rank %v, want 1", attrs["logical_rank"])
			}
			if e.Time < events[first[obs.EvFenixRebuild]].Time {
				t.Error("spare promotion predates the rebuild")
			}
		}
	}
	if !promoted {
		t.Error("no spare→recovered role change observed")
	}

	// Counters must agree with the story the events tell.
	reg := rec.Registry()
	for name, want := range map[string]float64{
		obs.MFailuresInjected: 1,
		obs.MFailuresSurvived: 1,
		obs.MRebuilds:         1,
		obs.MSparesActivated:  1,
		obs.MJobLaunches:      1,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := reg.CounterValue(obs.MFailuresDetected); got < 1 {
		t.Errorf("%s = %v, want >= 1", obs.MFailuresDetected, got)
	}
	layer := obs.L("layer", "veloc")
	// 4 ranks checkpoint at iterations 4, 9, 14 before the failure and
	// re-checkpoint at 19 after recovery.
	if got := reg.CounterValue(obs.MCheckpoints, layer); got < 12 {
		t.Errorf("%s = %v, want >= 12", obs.MCheckpoints, got)
	}
	if got := reg.CounterValue(obs.MCheckpointBytes, layer); got <= 0 {
		t.Errorf("%s = %v, want > 0", obs.MCheckpointBytes, got)
	}
	if got := reg.CounterValue(obs.MRestores, layer); got < 1 {
		t.Errorf("%s = %v, want >= 1", obs.MRestores, got)
	}
	if got := reg.CounterValue(obs.MRecomputeIters); got < 1 {
		t.Errorf("%s = %v, want >= 1", obs.MRecomputeIters, got)
	}
	if events[first[obs.EvVeloCRestart]].Time >= events[len(events)-1].Time {
		t.Error("restart is the last event; expected recompute and job end after it")
	}
}

// TestObsFailureStorm stresses the observability pipeline with a failure
// storm — two simultaneous kills in one iteration plus a repeated kill of
// the same slot in a later generation — and cross-checks the reconstructed
// recovery spans against the metrics the layers report.
func TestObsFailureStorm(t *testing.T) {
	ref := reference(t)
	rec := obs.New()
	sink := newSink()
	cfg := Config{
		Strategy:           StrategyFenixKRVeloC,
		Spares:             3,
		CheckpointInterval: 5,
		CheckpointName:     "mini",
		Failures: []*FailurePlan{
			{Slot: 1, Iteration: 8},
			{Slot: 2, Iteration: 8},  // simultaneous with the first
			{Slot: 1, Iteration: 14}, // repeated kill, next generation
		},
	}
	job := mpi.JobConfig{Ranks: tRanks + 3, Machine: quietMachine(), Seed: 11, Obs: rec}
	res := Run(job, cfg, miniApp(tIters, tVecLen, sink))
	if res.Failed || res.Err() != nil {
		t.Fatalf("storm run failed: %v (launches %d)", res.Err(), res.Launches)
	}
	for i, fp := range cfg.Failures {
		if !fp.Fired() {
			t.Fatalf("failure plan %d never fired", i)
		}
	}
	checkMatchesReference(t, sink, ref)

	// Every event documented.
	known := map[string]bool{}
	for _, n := range obs.EventNames() {
		known[n] = true
	}
	events := rec.Events()
	for _, e := range events {
		if !known[e.Name] {
			t.Errorf("undocumented event name %q", e.Name)
		}
	}

	// Span reconstruction: one span per communicator rebuild, and the
	// spans' repair accounting must match the Fenix layer's own counters.
	rep, err := analyze.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	rebuilds := int(reg.CounterValue(obs.MRebuilds))
	if rebuilds < 2 {
		t.Errorf("rebuilds = %d, want >= 2 (storm spans two generations)", rebuilds)
	}
	if len(rep.Spans) != rebuilds {
		t.Errorf("got %d spans, want one per rebuild (%d)", len(rep.Spans), rebuilds)
	}
	if rep.FailuresInjected != 3 || rep.FailuresUnrepaired != 0 {
		t.Errorf("injected %d unrepaired %d, want 3 and 0",
			rep.FailuresInjected, rep.FailuresUnrepaired)
	}
	repaired := 0
	for _, sp := range rep.Spans {
		repaired += sp.Replaced + sp.Shrunk
	}
	if repaired != 3 {
		t.Errorf("spans repair %d failures, want 3", repaired)
	}
	if got := reg.CounterValue(obs.MFailuresSurvived); got != float64(repaired) {
		t.Errorf("%s = %v, but spans account for %d", obs.MFailuresSurvived, got, repaired)
	}
	for i, sp := range rep.Spans {
		if sp.Kind != "fenix" {
			t.Errorf("span %d kind = %q, want fenix", i, sp.Kind)
		}
		if sp.Repair < sp.Start || sp.End < sp.Repair {
			t.Errorf("span %d timeline inverted: %+v", i, sp)
		}
		if i > 0 {
			if sp.Generation <= rep.Spans[i-1].Generation {
				t.Errorf("span %d generation %d not increasing", i, sp.Generation)
			}
			if sp.Start < rep.Spans[i-1].Start {
				t.Errorf("span %d starts before span %d", i, i-1)
			}
		}
	}
	// The storm's episodes restored checkpoints and re-executed lost
	// iterations; both phases must be visible in the aggregate.
	if rep.PhaseTotals.Restore <= 0 {
		t.Errorf("no restore time attributed: %+v", rep.PhaseTotals)
	}
	if rep.PhaseTotals.Recompute <= 0 {
		t.Errorf("no recompute time attributed: %+v", rep.PhaseTotals)
	}
	last := rep.Spans[len(rep.Spans)-1]
	if last.RecomputedIters == 0 {
		t.Error("final span recomputed no iterations")
	}
}

// TestObsFailureStormShrink extends the storm matrix past spare
// exhaustion: three kills against a single spare with ShrinkOnExhaustion
// enabled. The first failure is repaired by substitution, the next two by
// compacting the communicator, and the span reconstruction must tell
// exactly that story — one span per rebuild with correct Replaced/Shrunk
// disposition — while the job still completes on the smaller world.
func TestObsFailureStormShrink(t *testing.T) {
	rec := obs.New()
	sink := newSink()
	cfg := Config{
		Strategy:           StrategyFenixKRVeloC,
		Spares:             1,
		ShrinkOnExhaustion: true,
		CheckpointInterval: 5,
		CheckpointName:     "mini",
		Failures: []*FailurePlan{
			{Slot: 1, Iteration: 8},  // repaired by the only spare
			{Slot: 3, Iteration: 14}, // pool exhausted: shrink to 3 slots
			{Slot: 2, Iteration: 18}, // shrink again to 2 slots
		},
	}
	job := mpi.JobConfig{Ranks: tRanks + 1, Machine: quietMachine(), Seed: 13, Obs: rec}
	res := Run(job, cfg, miniApp(tIters, tVecLen, sink))
	if res.Failed || res.Err() != nil {
		t.Fatalf("shrink storm failed: %v (launches %d)", res.Err(), res.Launches)
	}
	for i, fp := range cfg.Failures {
		if !fp.Fired() {
			t.Fatalf("failure plan %d never fired", i)
		}
	}
	// The compacted world has two slots left; both must deliver a final
	// result (the values legitimately differ from the 4-rank reference:
	// the app folds an allreduce over the live communicator into its data).
	for r := 0; r < tRanks-2; r++ {
		if sink.get(r) == nil {
			t.Errorf("slot %d produced no result after shrink", r)
		}
	}

	rep, err := analyze.Analyze(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	if got := int(reg.CounterValue(obs.MRebuilds)); got != 3 {
		t.Errorf("rebuilds = %d, want 3", got)
	}
	if len(rep.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(rep.Spans))
	}
	wantDisposition := []struct{ replaced, shrunk int }{{1, 0}, {0, 1}, {0, 1}}
	for i, sp := range rep.Spans {
		if sp.Kind != "fenix" {
			t.Errorf("span %d kind = %q, want fenix", i, sp.Kind)
		}
		if sp.Replaced != wantDisposition[i].replaced || sp.Shrunk != wantDisposition[i].shrunk {
			t.Errorf("span %d disposed (replaced %d, shrunk %d), want (%d, %d)",
				i, sp.Replaced, sp.Shrunk, wantDisposition[i].replaced, wantDisposition[i].shrunk)
		}
		if i > 0 && sp.Generation <= rep.Spans[i-1].Generation {
			t.Errorf("span %d generation %d not increasing", i, sp.Generation)
		}
	}
	if rep.FailuresInjected != 3 || rep.FailuresRepaired != 3 || rep.FailuresUnrepaired != 0 {
		t.Errorf("injected %d repaired %d unrepaired %d, want 3/3/0",
			rep.FailuresInjected, rep.FailuresRepaired, rep.FailuresUnrepaired)
	}
	if got := reg.CounterValue(obs.MFailuresSurvived); got != 3 {
		t.Errorf("%s = %v, want 3", obs.MFailuresSurvived, got)
	}
	if got := reg.CounterValue(obs.MSparesActivated); got != 1 {
		t.Errorf("%s = %v, want 1 (the other two failures shrank the world)", obs.MSparesActivated, got)
	}
	if got := reg.CounterValue(obs.MShrinks); got < 2 {
		t.Errorf("%s = %v, want >= 2", obs.MShrinks, got)
	}
}

// TestObsFailureStormMixed is the storm matrix's mixed-generation cell:
// spare repairs and shrink repairs interleave across overlapping rebuilds.
// Generation 1 substitutes a spare; generation 2 takes two simultaneous
// kills with one spare left, so ONE rebuild both substitutes and shrinks;
// generation 3 then kills the previously recovered spare at its logical
// slot with the pool empty, forcing a second shrink. The span
// reconstruction and the layer counters must tell that story
// consistently.
func TestObsFailureStormMixed(t *testing.T) {
	rec := obs.New()
	sink := newSink()
	cfg := Config{
		Strategy:           StrategyFenixKRVeloC,
		Spares:             2,
		ShrinkOnExhaustion: true,
		CheckpointInterval: 5,
		CheckpointName:     "mini",
		Failures: []*FailurePlan{
			{Slot: 1, Iteration: 8}, // repaired by the first spare
			// Simultaneous kills with one spare left: the lower failed slot
			// is substituted, the higher one shrunk away — a single rebuild
			// with mixed disposition.
			{Slot: 2, Iteration: 12},
			{Slot: 3, Iteration: 12},
			// The recovered spare now holds logical slot 1; killing it with
			// the pool empty forces a pure shrink of a previously
			// spare-repaired slot.
			{Slot: 1, Iteration: 17},
		},
	}
	job := mpi.JobConfig{Ranks: tRanks + 2, Machine: quietMachine(), Seed: 17, Obs: rec}
	res := Run(job, cfg, miniApp(tIters, tVecLen, sink))
	if res.Failed || res.Err() != nil {
		t.Fatalf("mixed storm failed: %v (launches %d)", res.Err(), res.Launches)
	}
	for i, fp := range cfg.Failures {
		if !fp.Fired() {
			t.Fatalf("failure plan %d never fired", i)
		}
	}
	// Two slots shrunk away (3 in gen 2, 1 in gen 3): the world ends at
	// tRanks-2 slots, each delivering a result.
	for r := 0; r < tRanks-2; r++ {
		if sink.get(r) == nil {
			t.Errorf("slot %d produced no result after the storm", r)
		}
	}

	rep, err := analyze.Analyze(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	rebuilds := int(reg.CounterValue(obs.MRebuilds))
	if rebuilds != 3 {
		t.Errorf("rebuilds = %d, want 3", rebuilds)
	}
	if len(rep.Spans) != rebuilds {
		t.Fatalf("got %d spans for %d rebuilds, want one per rebuild", len(rep.Spans), rebuilds)
	}
	wantDisposition := []struct{ replaced, shrunk int }{{1, 0}, {1, 1}, {0, 1}}
	shrinkSpans := 0
	for i, sp := range rep.Spans {
		if sp.Kind != "fenix" {
			t.Errorf("span %d kind = %q, want fenix", i, sp.Kind)
		}
		if sp.Replaced != wantDisposition[i].replaced || sp.Shrunk != wantDisposition[i].shrunk {
			t.Errorf("span %d disposed (replaced %d, shrunk %d), want (%d, %d)",
				i, sp.Replaced, sp.Shrunk, wantDisposition[i].replaced, wantDisposition[i].shrunk)
		}
		if sp.Shrunk > 0 {
			shrinkSpans++
		}
		// Phase ordering must hold within every span, including the mixed
		// substitute-and-shrink rebuild.
		if sp.Repair < sp.Start || sp.End < sp.Repair {
			t.Errorf("span %d phases inverted: start %v repair %v end %v",
				i, sp.Start, sp.Repair, sp.End)
		}
		if i > 0 {
			if sp.Generation <= rep.Spans[i-1].Generation {
				t.Errorf("span %d generation %d not increasing", i, sp.Generation)
			}
			if sp.Start < rep.Spans[i-1].Start {
				t.Errorf("span %d starts before span %d", i, i-1)
			}
		}
	}
	// failures_survived_total and mpi_shrinks must agree with the spans:
	// every injected failure survived (4 = 2 replaced + 2 shrunk), and one
	// mpi.shrink per compacting rebuild.
	if rep.FailuresInjected != 4 || rep.FailuresRepaired != 4 || rep.FailuresUnrepaired != 0 {
		t.Errorf("injected %d repaired %d unrepaired %d, want 4/4/0",
			rep.FailuresInjected, rep.FailuresRepaired, rep.FailuresUnrepaired)
	}
	if got := reg.CounterValue(obs.MFailuresSurvived); got != 4 {
		t.Errorf("%s = %v, want 4", obs.MFailuresSurvived, got)
	}
	if got := reg.CounterValue(obs.MSparesActivated); got != 2 {
		t.Errorf("%s = %v, want 2 (the whole pool)", obs.MSparesActivated, got)
	}
	if got := int(reg.CounterValue(obs.MShrinks)); got != shrinkSpans || got != 2 {
		t.Errorf("%s = %d, want 2 (= spans with shrunk slots, got %d)",
			obs.MShrinks, got, shrinkSpans)
	}
	if rep.Shrinks != int(reg.CounterValue(obs.MShrinks)) {
		t.Errorf("analyzer shrinks %d != %s %v",
			rep.Shrinks, obs.MShrinks, reg.CounterValue(obs.MShrinks))
	}
}

// TestObsDisabledRunsClean checks a job with no recorder still runs (the
// nil no-op path through every instrumentation site).
func TestObsDisabledRunsClean(t *testing.T) {
	res, _ := runStrategy(t, StrategyFenixKRVeloC, 1, &FailurePlan{Slot: 1, Iteration: 18})
	if res.Failed || res.Err() != nil {
		t.Fatalf("uninstrumented run failed: %v", res.Err())
	}
}
