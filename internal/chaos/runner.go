package chaos

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/apps/heatdis"
	"repro/internal/apps/minimd"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fenix"
	"repro/internal/kokkos"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// Application names the campaign can run.
const (
	AppHeatdis = "heatdis"
	AppMiniMD  = "minimd"
)

// RunConfig fully determines one chaos run. Together with the simulator's
// virtual clocks it makes the run reproducible: the same RunConfig always
// produces the same RunReport.
type RunConfig struct {
	Seed         uint64 `json:"seed"`
	App          string `json:"app"`
	Mode         string `json:"mode"`
	Ranks        int    `json:"ranks"` // application ranks (excludes spares)
	Spares       int    `json:"spares"`
	Shrink       bool   `json:"shrink"`
	RanksPerNode int    `json:"ranks_per_node"`
	Iters        int    `json:"iters"`
	Interval     int    `json:"interval"`
	// Flush is the per-node flush-scheduling policy applied to every node
	// (zero = classic unscheduled flushing). Derived from the cell, never
	// from the RNG stream, so kill schedules are unchanged by it.
	Flush    cluster.FlushPolicy `json:"flush"`
	Schedule Schedule            `json:"schedule"`
	// SDC names the silent-data-corruption detection policy (none, checksum,
	// replay, vote); empty means none. Like Flush it is a cell constant,
	// never drawn from the RNG stream.
	SDC string `json:"sdc,omitempty"`
	// ExpectFail marks schedules designed to exhaust the spare pool with
	// shrinking disabled: the only correct outcome is a job failure with
	// fenix.ErrOutOfSpares.
	ExpectFail bool `json:"expect_fail"`
	// Localized runs the cell under core.StrategyLocalized (sender-based
	// message logging, DESIGN.md §12) instead of the default global-rollback
	// integrated stack: after a kill only the replacement recomputes, served
	// from the log, while survivors pause in place. Localized runs must be
	// byte-identical to the failure-free reference like any other cell.
	Localized bool `json:"localized,omitempty"`
	// Rehost holds that many extra ranks in Fenix's second-line rehost
	// reserve behind the spares. Reserve substitutions keep the lineage
	// width stable (no compaction, so the message log — and the bitwise
	// reference comparison — survive spare exhaustion in shrink cells).
	Rehost int `json:"rehost,omitempty"`
}

// appRun adapts one application to the chaos runner: body to execute under
// the resilience stack, and a checksum over the first n logical ranks'
// results (erroring if any of them produced none).
type appRun struct {
	app      core.App
	checksum func(n int) (float64, error)
}

// appFor builds the application a run executes; a test swaps in one that
// panics or hangs.
var appFor = buildApp

func buildApp(cfg RunConfig) (appRun, error) {
	switch cfg.App {
	case AppHeatdis:
		sink := heatdis.NewSink()
		// Large enough that checkpoint flush windows stay open for several
		// iterations, so flush-window kills have something to interrupt. The
		// storm-wave cells run 32-64 ranks; scale the per-rank footprint
		// down there so a -race sweep stays within CI memory while the
		// aggregate problem stays big enough to keep flush windows open.
		bytesPerRank := 8 << 20
		if cfg.Ranks > 8 {
			bytesPerRank = 512 << 10
		}
		if cfg.Ranks > 1024 {
			// O(4k)-rank scale cells: keep the aggregate problem (and the
			// per-rank checkpoint payload the scratch layer copies) small
			// enough that a -race replay pair fits CI memory; the collective
			// and flush machinery being exercised is size-independent.
			bytesPerRank = 64 << 10
		}
		hc := heatdis.Config{
			BytesPerRank:       bytesPerRank,
			Iterations:         cfg.Iters,
			CheckpointInterval: cfg.Interval,
		}
		return appRun{app: heatdis.App(hc, sink), checksum: sink.GlobalChecksum}, nil
	case AppMiniMD:
		sink := minimd.NewSink()
		mc := minimd.Config{
			Steps:              cfg.Iters,
			CheckpointInterval: cfg.Interval,
		}
		return appRun{app: minimd.App(mc, sink), checksum: sink.GlobalChecksum}, nil
	default:
		return appRun{}, fmt.Errorf("chaos: unknown app %q", cfg.App)
	}
}

// RefCache lazily computes and caches the failure-free reference checksum
// per (app, ranks, iters, interval) cell, by running the same application
// under core.StrategyNone with no injection. Non-shrink chaos runs must
// reproduce this answer bitwise.
type RefCache struct {
	mu   sync.Mutex
	refs map[string]float64
}

// NewRefCache returns an empty reference cache.
func NewRefCache() *RefCache { return &RefCache{refs: make(map[string]float64)} }

// Checksum returns the failure-free global checksum for the cell.
func (rc *RefCache) Checksum(cfg RunConfig) (float64, error) {
	key := fmt.Sprintf("%s/%d/%d/%d", cfg.App, cfg.Ranks, cfg.Iters, cfg.Interval)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if v, ok := rc.refs[key]; ok {
		return v, nil
	}
	run, err := buildApp(cfg)
	if err != nil {
		return 0, err
	}
	res := core.Run(
		mpi.JobConfig{Ranks: cfg.Ranks, Seed: cfg.Seed},
		core.Config{Strategy: core.StrategyNone, CheckpointInterval: cfg.Interval, CheckpointName: "chaos"},
		run.app,
	)
	if res.Failed || res.Err() != nil {
		return 0, fmt.Errorf("chaos: reference run failed: %v", res.Err())
	}
	v, err := run.checksum(cfg.Ranks)
	if err != nil {
		return 0, fmt.Errorf("chaos: reference checksum: %v", err)
	}
	rc.refs[key] = v
	return v, nil
}

// DefaultTimeout is the real-time watchdog per run; the virtual-clock
// simulation finishes in well under a second, so hitting it means a
// deadlock in the stack under test.
const DefaultTimeout = 30 * time.Second

// RunOne executes one chaos run and checks every invariant, returning the
// report. It never panics on invariant violations; they are recorded in
// Report.Violations so a campaign can keep sweeping.
func RunOne(cfg RunConfig, refs *RefCache, timeout time.Duration) *RunReport {
	return RunOneStreaming(cfg, refs, timeout, nil)
}

// RunOneStreaming is RunOne with the run's structured event log written
// to events as JSONL (obsreport's input format) after the run, for
// post-mortem analysis of a replayed seed. A nil writer skips the export;
// a hung run writes nothing; a failed export is a violation.
func RunOneStreaming(cfg RunConfig, refs *RefCache, timeout time.Duration, events io.Writer) *RunReport {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	rep := &RunReport{RunConfig: cfg}
	run, err := appFor(cfg)
	if err != nil {
		rep.addViolation(err.Error())
		return rep
	}

	inj := NewInjector(cfg.Schedule)
	rec := obs.New()
	job := mpi.JobConfig{
		Ranks:        cfg.Ranks + cfg.Spares + cfg.Rehost,
		RanksPerNode: cfg.RanksPerNode,
		Seed:         cfg.Seed,
		Obs:          rec,
		Inject:       inj,
		Flush:        cfg.Flush,
	}
	ccfg := core.Config{
		Strategy:           core.StrategyFenixKRVeloC,
		Spares:             cfg.Spares,
		RehostReserve:      cfg.Rehost,
		ShrinkOnExhaustion: cfg.Shrink,
		CheckpointInterval: cfg.Interval,
		CheckpointName:     "chaos",
	}
	if cfg.Localized {
		ccfg.Strategy = core.StrategyLocalized
	}
	if cfg.SDC != "" {
		pol, err := kokkos.ParseSDCPolicy(cfg.SDC)
		if err != nil {
			rep.addViolation(err.Error())
			return rep
		}
		ccfg.SDC = core.SDCConfig{Policy: pol}
		// Replay-validator bounds are the app's physical ranges: Heatdis
		// temperatures live in [0, sourceTemp]; MiniMD forces/positions are
		// finite but unbounded a priori, so only wild exponent flips and
		// NaN/Inf are caught there.
		switch cfg.App {
		case AppHeatdis:
			ccfg.SDC.MinVal, ccfg.SDC.MaxVal = 0, 100
		case AppMiniMD:
			ccfg.SDC.MinVal, ccfg.SDC.MaxVal = -1e12, 1e12
		}
	}

	baseline := runtime.NumGoroutine()
	type outcome struct {
		res      *core.Result
		panicked any
	}
	done := make(chan outcome, 1)
	go func() {
		// mpi.RunJob re-raises a rank's panic here once every rank has
		// returned; it is this seed's violation, not the sweep's end.
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{panicked: r}
			}
		}()
		done <- outcome{res: core.Run(job, ccfg, run.app)}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(timeout):
		rep.Hung = true
		rep.addViolation(fmt.Sprintf("hang: run exceeded the %s watchdog", timeout))
	}
	// The injector's counts are read under its own lock, so they are safe
	// to read while a hung run's goroutines live.
	rep.KillsFired = inj.Fired()
	rep.SpareKillsFired = inj.FiredSpare()
	rep.FlipsFired = inj.FlipsFired()
	if rep.Hung {
		// Deadlock in the stack under test. The run's goroutines are still
		// live, so do not touch the recorder (it is being written to).
		return rep
	}
	if out.panicked != nil {
		rep.addViolation(fmt.Sprintf("panic: %v", out.panicked))
		return rep
	}

	res := out.res
	rep.JobFailed = res.Failed
	rep.Error = classifyErr(res.Err())
	rep.WallSeconds = res.WallTime
	rep.Launches = res.Launches

	reg := rec.Registry()
	rep.SDCInjected = int(reg.CounterValue(obs.MSDCInjected))
	rep.SDCDetected = int(reg.CounterValue(obs.MSDCDetected))
	rep.SDCCorrected = int(reg.CounterValue(obs.MSDCCorrected))
	rep.SDCEscaped = int(reg.CounterValue(obs.MSDCEscaped))
	rep.SDCReplays = int(reg.CounterValue(obs.MSDCReplays))
	rep.SDCVotes = int(reg.CounterValue(obs.MSDCVotes))
	rep.Injected = int(reg.CounterValue(obs.MFailuresInjected))
	rep.Survived = int(reg.CounterValue(obs.MFailuresSurvived))
	rep.Rebuilds = int(reg.CounterValue(obs.MRebuilds))
	rep.SparesActivated = int(reg.CounterValue(obs.MSparesActivated))
	rep.Shrinks = int(reg.CounterValue(obs.MShrinks))
	rep.FlushesCoalesced = int(reg.CounterValue(obs.MFlushCoalesced))
	rep.FlushesDiscarded = int(reg.CounterValue(obs.MFlushDiscarded))
	rep.MsgsLogged = int(reg.CounterValue(obs.MMsgLogged))
	rep.MsgsReplayed = int(reg.CounterValue(obs.MMsgReplayed))
	rep.MsgsTrimmed = int(reg.CounterValue(obs.MMsgLogTrimmed))
	rep.Rehosts = int(reg.CounterValue(obs.MRehosts))
	rep.FlushReorders = int(reg.CounterValue(obs.MFlushReorders))

	evs := rec.Events()
	if events != nil {
		if err := obs.WriteEventsJSONL(events, evs); err != nil {
			rep.addViolation(fmt.Sprintf("events export: %v", err))
		}
	}
	arep, err := analyze.Analyze(evs)
	if err != nil {
		rep.addViolation(fmt.Sprintf("analyze: %v", err))
		return rep
	}
	rep.Repaired = arep.FailuresRepaired
	rep.Unrepaired = arep.FailuresUnrepaired
	for _, sp := range arep.Spans {
		slots := append([]int(nil), sp.FailedSlots...)
		// Simultaneous kills (correlated node loss) land at the same
		// virtual time and their event order is scheduling-dependent; sort
		// so the report is byte-stable across replays.
		sort.Ints(slots)
		rep.Spans = append(rep.Spans, SpanBrief{
			Kind: sp.Kind, Generation: sp.Generation, FailedSlots: slots,
			Replaced: sp.Replaced, Shrunk: sp.Shrunk,
			Start: sp.Start, End: sp.End,
		})
		rep.Shrunk += sp.Shrunk
	}
	rep.FinalSize = cfg.Ranks - rep.Shrunk
	for _, g := range arep.Checkpoints {
		rep.FlushesQueued += g.FlushesQueued
		rep.FlushesStarted += g.FlushesStarted
	}

	checkInvariants(rep, cfg, arep, refs, run)
	checkGoroutines(rep, baseline)
	return rep
}

func classifyErr(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, fenix.ErrOutOfSpares):
		return "out-of-spares"
	case errors.Is(err, fenix.ErrNoSurvivors):
		return "no-survivors"
	default:
		return err.Error()
	}
}

// checkInvariants cross-checks the outcome, the obs counters, the span
// analyzer, and the application answer against what the schedule demands.
func checkInvariants(rep *RunReport, cfg RunConfig, arep *analyze.Report, refs *RefCache, run appRun) {
	v := rep.addViolation

	// Outcome matches intent.
	if cfg.ExpectFail {
		if !rep.JobFailed {
			v("schedule exhausts spares with shrink disabled, but the job succeeded")
		}
		if rep.Error != "out-of-spares" {
			v(fmt.Sprintf("expected out-of-spares failure, got error %q", rep.Error))
		}
	} else {
		if rep.JobFailed || rep.Error != "" {
			v(fmt.Sprintf("job failed (error %q); every failure should have been survivable", rep.Error))
		}
	}
	if rep.Launches != 1 {
		v(fmt.Sprintf("launches = %d; ULFM recovery must not relaunch", rep.Launches))
	}

	// Every scheduled kill fired (campaign schedules are designed so each
	// kill's execution point is reached).
	if rep.KillsFired != len(cfg.Schedule.Kills) {
		v(fmt.Sprintf("fired %d of %d scheduled kills", rep.KillsFired, len(cfg.Schedule.Kills)))
	}
	if rep.FlipsFired != len(cfg.Schedule.Flips) {
		v(fmt.Sprintf("fired %d of %d scheduled flips", rep.FlipsFired, len(cfg.Schedule.Flips)))
	}

	// SDC accounting is exact: every fired flip was recorded as injected,
	// and every injected flip was resolved — caught by a detection layer or
	// escaped past all of them. Corrections can never exceed detections.
	if rep.SDCInjected != rep.FlipsFired {
		v(fmt.Sprintf("%s = %d, but the injector fired %d flips", obs.MSDCInjected, rep.SDCInjected, rep.FlipsFired))
	}
	if rep.SDCInjected != rep.SDCDetected+rep.SDCEscaped {
		v(fmt.Sprintf("sdc_injected %d != sdc_detected %d + sdc_escaped %d",
			rep.SDCInjected, rep.SDCDetected, rep.SDCEscaped))
	}
	if rep.SDCCorrected > rep.SDCDetected {
		v(fmt.Sprintf("sdc_corrected %d > sdc_detected %d", rep.SDCCorrected, rep.SDCDetected))
	}
	if arep.SDCInjected != rep.SDCInjected || arep.SDCDetected != rep.SDCDetected ||
		arep.SDCCorrected != rep.SDCCorrected || arep.SDCEscaped != rep.SDCEscaped {
		v(fmt.Sprintf("analyzer saw SDC inj/det/corr/esc %d/%d/%d/%d, counters say %d/%d/%d/%d",
			arep.SDCInjected, arep.SDCDetected, arep.SDCCorrected, arep.SDCEscaped,
			rep.SDCInjected, rep.SDCDetected, rep.SDCCorrected, rep.SDCEscaped))
	}

	// Failure accounting reconciles across layers:
	// injector == failures_injected_total == analyzer, and every injected
	// failure is either repaired or (only in expect-fail runs) unrepaired.
	wantInjected := rep.KillsFired - rep.SpareKillsFired
	if rep.Injected != wantInjected {
		v(fmt.Sprintf("%s = %d, but the injector fired %d non-spare kills", obs.MFailuresInjected, rep.Injected, wantInjected))
	}
	if arep.FailuresInjected != rep.Injected {
		v(fmt.Sprintf("analyzer saw %d injected failures, counter says %d", arep.FailuresInjected, rep.Injected))
	}
	if arep.SpareKills != rep.SpareKillsFired {
		v(fmt.Sprintf("analyzer saw %d spare kills, injector fired %d", arep.SpareKills, rep.SpareKillsFired))
	}
	if rep.Injected != rep.Repaired+rep.Unrepaired {
		v(fmt.Sprintf("injected %d != repaired %d + unrepaired %d", rep.Injected, rep.Repaired, rep.Unrepaired))
	}
	if rep.Repaired != rep.Survived {
		v(fmt.Sprintf("analyzer repaired %d, %s = %d", rep.Repaired, obs.MFailuresSurvived, rep.Survived))
	}
	if !cfg.ExpectFail && rep.Unrepaired != 0 {
		v(fmt.Sprintf("%d failures unrepaired in a run that should survive everything", rep.Unrepaired))
	}

	// Span reconstruction reconciles with the Fenix layer's own counters.
	if len(rep.Spans) != rep.Rebuilds {
		v(fmt.Sprintf("analyzer reconstructed %d spans, %s = %d", len(rep.Spans), obs.MRebuilds, rep.Rebuilds))
	}
	replaced, shrinkSpans := 0, 0
	for _, sp := range rep.Spans {
		if sp.Kind != "fenix" {
			v(fmt.Sprintf("span kind %q; ULFM recovery must not produce relaunch spans", sp.Kind))
		}
		replaced += sp.Replaced
		if sp.Shrunk > 0 {
			shrinkSpans++
		}
	}
	if replaced != rep.SparesActivated {
		v(fmt.Sprintf("spans replaced %d slots, %s = %d", replaced, obs.MSparesActivated, rep.SparesActivated))
	}
	// Shrink accounting reconciles across layers: Fenix emits exactly one
	// mpi.shrink per compacting rebuild, the analyzer counts those events,
	// and compaction only ever happens with shrinking enabled.
	if arep.Shrinks != rep.Shrinks {
		v(fmt.Sprintf("analyzer saw %d shrink events, %s = %d", arep.Shrinks, obs.MShrinks, rep.Shrinks))
	}
	if rep.Shrinks != shrinkSpans {
		v(fmt.Sprintf("%s = %d, but %d spans compacted slots (one shrink per compacting rebuild)", obs.MShrinks, rep.Shrinks, shrinkSpans))
	}
	if !cfg.Shrink && (rep.Shrunk != 0 || rep.Shrinks != 0) {
		v(fmt.Sprintf("shrinking disabled but %d slots shrunk away over %d shrink events", rep.Shrunk, rep.Shrinks))
	}
	// Message-log accounting: capture is exclusive to localized cells, and a
	// localized recovery of a member kill must actually be served from the
	// log — unless compaction disabled it (Shrunk > 0), which degrades to
	// ordinary global rollback by design.
	if !cfg.Localized && rep.MsgsLogged != 0 {
		v(fmt.Sprintf("%s = %d in a non-localized run; the message log must stay off", obs.MMsgLogged, rep.MsgsLogged))
	}
	if cfg.Localized {
		if rep.MsgsLogged == 0 {
			v("localized run captured nothing into the message log")
		}
		if !cfg.ExpectFail && rep.Injected > 0 && rep.Shrunk == 0 && rep.MsgsReplayed == 0 {
			v(fmt.Sprintf("localized recovery repaired %d failures without serving a single logged message", rep.Injected))
		}
	}
	if cfg.Rehost == 0 && rep.Rehosts != 0 {
		v(fmt.Sprintf("%s = %d with no rehost reserve configured", obs.MRehosts, rep.Rehosts))
	}
	// Flush-scheduler accounting reconciles with the event stream: every
	// checkpoint's flush is queued exactly once, a flush starts at most
	// once, and every queued flush that never started is accounted as
	// either a coalesce (counted by the submitter) or a discard (the
	// owner's node crashed or lost its scratch with the flush mid-queue,
	// counted by veloc.flush_discarded) — the finalize drain commits
	// everything else, so the reconciliation is exact.
	totalFlushes := 0
	for _, g := range arep.Checkpoints {
		totalFlushes += g.Flushes
	}
	if cfg.Flush.Enabled() {
		if rep.FlushesQueued != totalFlushes {
			v(fmt.Sprintf("scheduler queued %d flushes, but %d flush_begin events were emitted", rep.FlushesQueued, totalFlushes))
		}
		if rep.FlushesStarted > rep.FlushesQueued {
			v(fmt.Sprintf("scheduler started %d flushes but only %d were queued", rep.FlushesStarted, rep.FlushesQueued))
		}
		analyzerDiscarded := 0
		for _, g := range arep.Checkpoints {
			analyzerDiscarded += g.FlushesDiscarded
		}
		if analyzerDiscarded != rep.FlushesDiscarded {
			v(fmt.Sprintf("analyzer saw %d discarded flushes, %s = %d", analyzerDiscarded, obs.MFlushDiscarded, rep.FlushesDiscarded))
		}
		if cancelled := rep.FlushesQueued - rep.FlushesStarted; rep.FlushesCoalesced+rep.FlushesDiscarded != cancelled {
			v(fmt.Sprintf("%d flushes never started, but %d were coalesced and %d discarded", cancelled, rep.FlushesCoalesced, rep.FlushesDiscarded))
		}
	} else if rep.FlushesQueued != 0 || rep.FlushesCoalesced != 0 || rep.FlushesDiscarded != 0 {
		v(fmt.Sprintf("scheduling disabled but saw %d queued / %d coalesced / %d discarded flushes",
			rep.FlushesQueued, rep.FlushesCoalesced, rep.FlushesDiscarded))
	}
	if cfg.ExpectFail {
		return // no final answer to check
	}

	// The application answer: non-shrink runs must reproduce the
	// failure-free reference bitwise; shrink runs must cover exactly the
	// compacted rank set with a finite answer.
	sum, err := run.checksum(rep.FinalSize)
	if err != nil {
		v(fmt.Sprintf("result coverage: %v (final size %d)", err, rep.FinalSize))
		return
	}
	rep.Checksum = sum
	// A flip that escaped every detection layer is free to corrupt the
	// final answer (that is what "escaped" means), so the bitwise reference
	// comparison — and even finiteness — only binds when nothing escaped.
	// Detected-and-corrected runs get no such license: they must reproduce
	// the failure-free answer exactly.
	if rep.SDCEscaped > 0 {
		return
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		v(fmt.Sprintf("global checksum is not finite: %v", sum))
	}
	if rep.Shrunk == 0 {
		ref, err := refs.Checksum(cfg)
		if err != nil {
			v(err.Error())
		} else if sum != ref {
			v(fmt.Sprintf("checksum %v differs from failure-free reference %v", sum, ref))
		}
	}
}

// checkGoroutines verifies the run leaked no goroutines: every rank, spare,
// and helper goroutine must have unwound once the job returned.
func checkGoroutines(rep *RunReport, baseline int) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		// The runner's own watchdog goroutine has already exited (buffered
		// send); anything above the pre-run baseline is a leak in the stack
		// under test.
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			rep.addViolation(fmt.Sprintf("goroutine leak: %d alive, %d before the run", n, baseline))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
