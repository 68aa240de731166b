package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// runLocalized runs the miniApp under StrategyLocalized with an obs
// recorder attached, so the message-log counters and events are visible to
// the assertions.
func runLocalized(t *testing.T, spares int, fails ...*FailurePlan) (*Result, *resultSink, *obs.Recorder) {
	t.Helper()
	sink := newSink()
	rec := obs.New()
	cfg := Config{
		Strategy:           StrategyLocalized,
		Spares:             spares,
		CheckpointInterval: 5,
		CheckpointName:     "mini",
		Failures:           fails,
	}
	job := mpi.JobConfig{Ranks: tRanks + spares, Machine: quietMachine(), Seed: 7, Obs: rec}
	res := Run(job, cfg, miniApp(tIters, tVecLen, sink))
	return res, sink, rec
}

// TestLocalizedRecoveryBitwiseIdentical is the tentpole contract: a kill
// between checkpoints recovers through the sender-based message log — only
// the replacement rolls back and replays — and the final state is still
// bitwise identical to a failure-free run.
func TestLocalizedRecoveryBitwiseIdentical(t *testing.T) {
	ref := reference(t)
	fail := &FailurePlan{Slot: 1, Iteration: 13}
	res, sink, rec := runLocalized(t, 1, fail)
	if res.Failed || res.Err() != nil {
		t.Fatalf("run failed: %v", res.Err())
	}
	if !fail.Fired() {
		t.Fatal("failure plan never fired")
	}
	if res.Launches != 1 {
		t.Fatalf("launched %d times; localized recovery must not relaunch", res.Launches)
	}
	checkMatchesReference(t, sink, ref)

	reg := rec.Registry()
	if logged := reg.CounterValue(obs.MMsgLogged); logged == 0 {
		t.Fatal("nothing was captured into the message log")
	}
	if replayed := reg.CounterValue(obs.MMsgReplayed); replayed == 0 {
		t.Fatal("recovery consumed no logged messages; it was not localized")
	}

	// Only the replacement recomputes: the restored iteration plus the
	// iterations its predecessor had executed past the checkpoint (V=9,
	// predecessor reached iteration 12 before dying at the iteration-13
	// boundary → recompute covers 9..12 on one rank). A global rollback
	// re-executes those on every rank.
	wantRecompute := 4.0
	if got := reg.CounterValue(obs.MRecomputeIters); got != wantRecompute {
		t.Fatalf("recompute iterations = %v, want %v (replacement only)", got, wantRecompute)
	}

	// The replay duration was measured exactly once, on the replacement.
	if n := histCount(rec, obs.MReplaySeconds); n != 1 {
		t.Fatalf("replay duration observed %d times, want 1", n)
	}
}

// histCount returns the total observation count of a named histogram.
func histCount(rec *obs.Recorder, name string) int {
	return int(rec.Registry().Histogram(name, obs.TimeBuckets).Count())
}

// TestLocalizedFailureBeforeFirstCheckpoint covers the no-committed-version
// corner: the victim dies before any checkpoint exists, the log of the
// aborted epoch is dropped on every rank, and the whole job re-executes
// live from scratch — still bitwise identical.
func TestLocalizedFailureBeforeFirstCheckpoint(t *testing.T) {
	ref := reference(t)
	fail := &FailurePlan{Slot: 2, Iteration: 2}
	res, sink, _ := runLocalized(t, 1, fail)
	if res.Failed || res.Err() != nil {
		t.Fatalf("run failed: %v", res.Err())
	}
	if !fail.Fired() {
		t.Fatal("failure plan never fired")
	}
	checkMatchesReference(t, sink, ref)
}

// TestLocalizedLogGCWatermark drives a three-kill storm and asserts the
// message-log garbage collector holds the line: every committed epoch
// advances the watermark and trims entries below it, and at the end of the
// run the resident log is exactly appends minus trims — the log never
// grows monotonically.
func TestLocalizedLogGCWatermark(t *testing.T) {
	ref := reference(t)
	fails := []*FailurePlan{
		{Slot: 1, Iteration: 7},
		{Slot: 2, Iteration: 13},
		{Slot: 3, Iteration: 18},
	}
	res, sink, rec := runLocalized(t, 3, fails...)
	if res.Failed || res.Err() != nil {
		t.Fatalf("run failed: %v", res.Err())
	}
	for _, fp := range fails {
		if !fp.Fired() {
			t.Fatalf("failure plan %+v never fired", fp)
		}
	}
	checkMatchesReference(t, sink, ref)

	reg := rec.Registry()
	logged := reg.CounterValue(obs.MMsgLogged)
	trimmed := reg.CounterValue(obs.MMsgLogTrimmed)
	entries := reg.GaugeValue(obs.MMsgLogEntries)
	if trimmed == 0 {
		t.Fatal("no log entries were ever trimmed across four committed epochs")
	}
	if entries != logged-trimmed {
		t.Fatalf("resident entries %v != logged %v - trimmed %v", entries, logged, trimmed)
	}
	if entries >= logged/2 {
		t.Fatalf("resident log (%v entries) retains most of the %v captured; GC is not keeping up", entries, logged)
	}

	// The trim events' watermark must be non-decreasing: each committed
	// epoch moves the frontier forward, never back.
	last := -1
	trims := 0
	for _, ev := range rec.Events() {
		if ev.Name != obs.EvMsgLogTrim {
			continue
		}
		trims++
		for _, a := range ev.Attrs {
			if a.Key == "watermark" {
				w, ok := a.Value.(int)
				if !ok {
					t.Fatalf("watermark attr has type %T", a.Value)
				}
				if w < last {
					t.Fatalf("watermark went backwards: %d after %d", w, last)
				}
				last = w
			}
		}
	}
	if trims == 0 {
		t.Fatal("no mpi.msglog_trim events emitted")
	}
	if last < 14 {
		t.Fatalf("final watermark %d; the iteration-14 checkpoint must have committed on every slot", last)
	}
}
