package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/apps/heatdis"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/trace"
)

// workload is one set of inputs the benchmark runs. Setup produces the
// references the checks compare against (StrategyNone runs, the parsed
// figures); Unit runs the workload's jobs once, one at a time, and checks
// their outputs. A run repeats Unit with identical inputs and reports
// per-unit medians.
type workload struct {
	Name   string
	Why    string
	Params any // frozen sizing, echoed in every result
	// UnitSeconds is what one unit takes on the 2-core reference host. It
	// turns --seconds into a unit count (see units), and is frozen with the
	// sizing: it does not follow the code getting faster or slower.
	UnitSeconds float64
	Setup       func(seed uint64) (any, error)
	Unit        func(seed uint64, ref any, tr *tracer) *unitResult
}

// units is how many times a run of the given length repeats the unit. The
// count is a function of --seconds and the frozen sizing only, never of how
// fast units actually ran: every Fenix job's world stays reachable for the
// life of the process (fenix.registry is never pruned), so peak_rss_mb grows
// with each unit — by 430 MB per unit on chaos_campaign — and two runs are
// comparable only if they ran the same number of units.
func (w workload) units(seconds float64) int {
	n := int(math.Round(seconds / w.UnitSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// unitResult is what one pass over a workload's jobs produced.
type unitResult struct {
	attempted, failed int
	virtWall          float64 // Σ JobResult.WallTime
	virtCost          float64 // Σ (wall − StrategyNone wall of the same app/geometry/seed)
	vals              map[string]float64
	trips             int  // watchdog expiries; a unit with any is left out of the medians
	hung              bool // a job hung twice: stop measuring
}

func newUnit() *unitResult { return &unitResult{vals: make(map[string]float64)} }

// op counts one attempted operation (a job, or a check on its output) and,
// when it failed, says why on stderr.
func (u *unitResult) op(ok bool, format string, args ...any) {
	u.attempted++
	if !ok {
		u.failed++
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

func (u *unitResult) add(name string, v float64) { u.vals[name] += v }

// watchdogCap bounds every per-job deadline so that a hang still leaves the
// run time to report inside the driver's per-run limit.
const watchdogCap = 60 * time.Second

// guarded runs f, a call into the layers sized to take about `sized` on the
// reference host, under a deadline of ten times that. On expiry it dumps
// every goroutine's stack to stderr, counts a watchdog trip and abandons the
// attempt, whose goroutines stay blocked: ROADMAP documents a load-dependent
// hang (ranks blocked in mailbox.receive or a collective that a revoke never
// wakes; about one 512-rank fenix-imr job in 100 here), and the pipeline must get a
// number, not a stuck process. Because that hang does not repeat when the
// same job runs again, f gets one more attempt; only a job that hangs twice
// is a failed operation, after which the unit runs nothing more and the
// run stops measuring.
func guarded[T any](u *unitResult, tr *tracer, name string, sized time.Duration, f func() T) (T, bool) {
	var zero T
	if u.hung {
		return zero, false
	}
	deadline := 10 * sized
	if deadline > watchdogCap {
		deadline = watchdogCap
	}
	for attempt := 0; attempt < 2; attempt++ {
		end := tr.begin(name)
		done := make(chan T, 1) // an abandoned attempt that does finish must not block
		go func() { done <- f() }()
		timer := time.NewTimer(deadline)
		select {
		case v := <-done:
			timer.Stop()
			end()
			return v, true
		case <-timer.C:
			end()
			u.trips++
			fmt.Fprintf(os.Stderr, "bench: %s exceeded its %s watchdog (attempt %d); goroutine stacks follow\n", name, deadline, attempt+1)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // diagnostics only
		}
	}
	u.hung = true
	u.op(false, "%s hung twice", name)
	return zero, false
}

// kill is one injected process failure: the rank holding Slot exits just
// before iteration Iter.
type kill struct{ Slot, Iter int }

// heatJob is one heatdis job the benchmark builds itself, so it can attach
// an obs.Recorder on traced runs. Engine, exec mode and flush policy are
// left at their zero values, as cmd/heatdis runs them, so that a later
// change of a default shows up as a number.
type heatJob struct {
	Strategy        core.Strategy
	Ranks, Spares   int
	Iters, Interval int
	Rows, Cols      int
	SimBytes        int // simulated bytes per rank; 0 = the real grid's size
	Kills           []kill
	Sized           time.Duration // what one run takes on the reference host
}

// heatOut is what one heatdis job returned.
type heatOut struct {
	res         *core.Result
	checksum    float64 // over the application ranks
	checksumErr error
	rec         *obs.Recorder // nil on untraced runs
}

func (j heatJob) label() string {
	return fmt.Sprintf("core.Run heatdis/%s/%d", j.Strategy, j.Ranks)
}

// run executes the job under the watchdog; ok is false if it hung twice.
func (j heatJob) run(seed uint64, u *unitResult, tr *tracer) (heatOut, bool) {
	spares := j.Spares
	if !j.Strategy.UsesFenix() {
		spares = 0
	}
	cfg := heatdis.Config{
		BytesPerRank: j.SimBytes, Iterations: j.Iters, CheckpointInterval: j.Interval,
		ActualRows: j.Rows, ActualCols: j.Cols,
	}
	cc := core.Config{
		Strategy: j.Strategy, Spares: spares,
		CheckpointInterval: j.Interval, CheckpointName: "heatdis",
	}
	// Each attempt gets its own failure plans (they fire once), recorder and
	// result sink, so an abandoned attempt shares nothing with its retry.
	return guarded(u, tr, j.label(), j.Sized, func() heatOut {
		var out heatOut
		cc := cc
		cc.Failures = nil
		for _, k := range j.Kills {
			cc.Failures = append(cc.Failures, &core.FailurePlan{Slot: k.Slot, Iteration: k.Iter})
		}
		if tr != nil {
			out.rec = obs.New()
		}
		sink := heatdis.NewSink()
		out.res = core.Run(mpi.JobConfig{Ranks: j.Ranks + spares, Seed: seed, Obs: out.rec}, cc, heatdis.App(cfg, sink))
		out.checksum, out.checksumErr = sink.GlobalChecksum(j.Ranks)
		return out
	})
}

// heatRef is the StrategyNone, fault-free run of a heatdis geometry: the
// bitwise answer and the virtual wall time every resilient run of that
// geometry is compared against.
type heatRef struct {
	Wall     float64
	Checksum float64
}

func heatReference(j heatJob, seed uint64) (heatRef, error) {
	j.Strategy, j.Kills = core.StrategyNone, nil
	out, ok := j.run(seed, newUnit(), nil)
	if !ok {
		return heatRef{}, fmt.Errorf("reference %s hung", j.label())
	}
	if err := out.res.Err(); err != nil {
		return heatRef{}, fmt.Errorf("reference %s: %w", j.label(), err)
	}
	if out.checksumErr != nil {
		return heatRef{}, fmt.Errorf("reference %s: %w", j.label(), out.checksumErr)
	}
	return heatRef{Wall: out.res.WallTime, Checksum: out.checksum}, nil
}

// runChecked runs one resilient heatdis job, checks it against ref, and
// folds its virtual times and (on traced runs) its obs counters into u.
func (j heatJob) runChecked(seed uint64, ref heatRef, u *unitResult, tr *tracer) {
	out, ok := j.run(seed, u, tr)
	if !ok {
		return
	}
	err := out.res.Err()
	u.op(err == nil, "%s failed: %v", j.label(), err)
	u.op(out.checksumErr == nil && out.checksum == ref.Checksum,
		"%s checksum %v (err %v) differs from the StrategyNone reference %v", j.label(), out.checksum, out.checksumErr, ref.Checksum)
	u.virtWall += out.res.WallTime
	u.virtCost += out.res.WallTime - ref.Wall
	addTimes(u, out.res.TimesWithOther(), 1)
	u.add("mpi.rank_iters", float64(j.Ranks*j.Iters))
	if out.rec == nil {
		return
	}
	addObsCounts(u, out.rec)
	// Export and analysis are part of what a traced job costs its user
	// (`-events`, obsreport), so a traced unit pays for them too.
	end := tr.begin("obs.Recorder.WriteJSONL")
	err = out.rec.WriteJSONL(io.Discard)
	end()
	u.op(err == nil, "%s: event export: %v", j.label(), err)
	end = tr.begin("analyze.Analyze")
	_, err = analyze.Analyze(out.rec.Events())
	end()
	u.op(err == nil, "%s: analyze: %v", j.label(), err)
}

// addTimes folds one job's mean per-rank category times (Other derived from
// wall time) into the per-layer virtual seconds, scaled by weight.
func addTimes(u *unitResult, t trace.Times, weight float64) {
	for _, m := range []struct {
		name string
		cats []trace.Category
	}{
		{"apps.virt_compute_s", []trace.Category{trace.AppCompute, trace.ForceCompute, trace.Neighboring}},
		{"mpi.virt_app_mpi_s", []trace.Category{trace.AppMPI, trace.Communicator}},
		{"fenix.virt_resil_init_s", []trace.Category{trace.ResilienceInit}},
		{"veloc.virt_ckpt_func_s", []trace.Category{trace.CheckpointFunc}},
		{"veloc.virt_data_recovery_s", []trace.Category{trace.DataRecovery}},
		{"core.virt_recompute_s", []trace.Category{trace.Recompute}},
		{"mpi.virt_other_s", []trace.Category{trace.Other}},
	} {
		for _, c := range m.cats {
			u.add(m.name, weight*t.Get(c))
		}
	}
}

// addObsCounts reads the counters the layers already export into the
// per-layer work counts.
func addObsCounts(u *unitResult, rec *obs.Recorder) {
	reg := rec.Registry()
	veloc, imr := obs.L("layer", "veloc"), obs.L("layer", "imr")
	for name, v := range map[string]float64{
		"mpi.rank_iters":             reg.CounterValue(obs.MRecomputeIters),
		"mpi.msgs_logged":            reg.CounterValue(obs.MMsgLogged),
		"mpi.msgs_replayed":          reg.CounterValue(obs.MMsgReplayed),
		"mpi.revokes":                reg.CounterValue(obs.MRevokes),
		"mpi.shrinks":                reg.CounterValue(obs.MShrinks),
		"mpi.agreements":             reg.CounterValue(obs.MAgreements),
		"fenix.rebuilds":             reg.CounterValue(obs.MRebuilds),
		"fenix.spares_activated":     reg.CounterValue(obs.MSparesActivated),
		"fenix.rehosts":              reg.CounterValue(obs.MRehosts),
		"fenix.imr_checkpoints":      reg.CounterValue(obs.MCheckpoints, imr),
		"kr.regions":                 reg.CounterValue(obs.MKRRegions),
		"veloc.checkpoints":          reg.CounterValue(obs.MCheckpoints, veloc),
		"veloc.checkpoint_sim_bytes": reg.CounterValue(obs.MCheckpointBytes, veloc),
		"veloc.restores":             reg.CounterValue(obs.MRestores, veloc),
		"veloc.flushes":              reg.CounterValue(obs.MFlushes),
		"veloc.flushes_coalesced":    reg.CounterValue(obs.MFlushCoalesced),
		"veloc.flushes_discarded":    reg.CounterValue(obs.MFlushDiscarded),
		"cluster.flush_reorders":     reg.CounterValue(obs.MFlushReorders),
		"core.job_launches":          reg.CounterValue(obs.MJobLaunches),
		"core.failures_injected":     reg.CounterValue(obs.MFailuresInjected),
		"core.failures_survived":     reg.CounterValue(obs.MFailuresSurvived),
		"core.recompute_iters":       reg.CounterValue(obs.MRecomputeIters),
		"kokkos.sdc_detected":        reg.CounterValue(obs.MSDCDetected),
		"kokkos.sdc_escaped":         reg.CounterValue(obs.MSDCEscaped),
		"kokkos.sdc_replays":         reg.CounterValue(obs.MSDCReplays),
		"kokkos.sdc_votes":           reg.CounterValue(obs.MSDCVotes),
		"veloc.virt_flush_wait_s":    reg.CounterValue(obs.MFlushWaitSeconds),
		"obs.events":                 float64(rec.Len()) + float64(rec.Dropped()),
	} {
		u.add(name, v)
	}
}

// failIteration places a kill 95 % of the way between the last two
// checkpoints, so the asynchronous flushes have completed (the paper's
// protocol, and cmd/heatdis -fail).
func failIteration(iters, interval int) int {
	return (iters/interval)*interval - 1 - interval + int(0.95*float64(interval))
}

// heatParams is the frozen sizing of a heatdis workload, echoed in every
// result. SimMiB 0 means the simulated size is the real grid's.
type heatParams struct {
	Ranks, Spares, Iters, Interval, Rows, Cols, SimMiB int
	Strategies                                         []string
	KillIters                                          []int
	KillSlots                                          string `json:",omitempty"` // how --seed picks the victims
}

// job is the workload's heatdis job under one of its strategies, without
// kills; sized is what one run of it takes on the reference host.
func (p heatParams) job(strategy string, sized time.Duration) heatJob {
	s, err := core.ParseStrategy(strategy)
	if err != nil {
		panic(err) // the names are constants of this file
	}
	return heatJob{
		Strategy: s, Ranks: p.Ranks, Spares: p.Spares, Iters: p.Iters, Interval: p.Interval,
		Rows: p.Rows, Cols: p.Cols, SimBytes: p.SimMiB << 20, Sized: sized,
	}
}

// heatdisWide is the checkpoint write path at width: kernels do nothing,
// collectives, halo exchange, the goroutine scheduler and the PFS/flush
// bookkeeping do all the work.
func heatdisWide(smoke bool) workload {
	p := heatParams{Ranks: 1024, Spares: 2, Iters: 300, Interval: 10, Rows: 8, Cols: 16, SimMiB: 64, Strategies: []string{"fenix-kr-veloc"}}
	if smoke {
		p.Ranks, p.Iters = 64, 30
	}
	job := p.job(p.Strategies[0], 5*time.Second)
	return workload{
		Name:   "heatdis_wide",
		Why:    "1024 failure-free ranks with tiny real grids: mpi collectives/halo, the goroutine scheduler and cluster PFS/flush bookkeeping do the work; checkpoint write path only",
		Params: p, UnitSeconds: 3.9,
		Setup: func(seed uint64) (any, error) { return heatReference(job, seed) },
		Unit: func(seed uint64, ref any, tr *tracer) *unitResult {
			u := newUnit()
			job.runChecked(seed, ref.(heatRef), u, tr)
			return u
		},
	}
}

// heatdisBytes is the mirror image of heatdisWide: few ranks, big real
// data, one kill, so the stencil and the checkpoint blob copies dominate.
func heatdisBytes(smoke bool) workload {
	p := heatParams{Ranks: 8, Spares: 2, Iters: 96, Interval: 24, Rows: 1024, Cols: 1024, Strategies: []string{"fenix-kr-veloc"}, KillSlots: "1 + seed mod 7"}
	if smoke {
		p.Iters, p.Interval, p.Rows, p.Cols = 24, 6, 128, 128
	}
	p.KillIters = []int{failIteration(p.Iters, p.Interval)}
	job := p.job(p.Strategies[0], 4*time.Second)
	return workload{
		Name:   "heatdis_bytes",
		Why:    "8 ranks with 8 MiB real views and one kill: the apps/kokkos stencil and kr/veloc/cluster blob encode, CRC and copies dominate, mpi does almost nothing",
		Params: p, UnitSeconds: 3.3,
		Setup: func(seed uint64) (any, error) { return heatReference(job, seed) },
		Unit: func(seed uint64, ref any, tr *tracer) *unitResult {
			u := newUnit()
			j := job
			j.Kills = []kill{{Slot: 1 + int(seed%uint64(p.Ranks-1)), Iter: p.KillIters[0]}}
			j.runChecked(seed, ref.(heatRef), u, tr)
			return u
		},
	}
}

// recoveryStorm uses the layers of heatdisWide the other way: rebuild,
// restore, replay and recompute, under three recovery schemes.
func recoveryStorm(smoke bool) workload {
	p := heatParams{
		Ranks: 512, Spares: 8, Iters: 300, Interval: 10, Rows: 8, Cols: 16, SimMiB: 64,
		Strategies: []string{"fenix-kr-veloc", "localized", "fenix-imr"},
		KillIters:  []int{45, 135, 225},
		KillSlots:  "1 + 7k + seed mod 16",
	}
	if smoke {
		p.Ranks, p.Iters, p.KillIters = 64, 60, []int{25, 45}
	}
	const sized = 3 * time.Second
	return workload{
		Name:   "recovery_storm",
		Why:    "512 ranks, three kills, under global rollback, message-log replay and buddy memory: Fenix rebuild, kr/veloc restore, MsgLog replay, recompute; the recover path of the layers heatdis_wide protects with",
		Params: p, UnitSeconds: 3.5,
		Setup: func(seed uint64) (any, error) { return heatReference(p.job(p.Strategies[0], sized), seed) },
		Unit: func(seed uint64, ref any, tr *tracer) *unitResult {
			u := newUnit()
			for _, strategy := range p.Strategies {
				j := p.job(strategy, sized)
				for k, it := range p.KillIters {
					j.Kills = append(j.Kills, kill{Slot: (1 + 7*k + int(seed%16)) % p.Ranks, Iter: it})
				}
				j.runChecked(seed, ref.(heatRef), u, tr)
			}
			return u
		},
	}
}

func allWorkloads(smoke bool) []workload {
	return []workload{
		heatdisWide(smoke), heatdisBytes(smoke), recoveryStorm(smoke),
		chaosCampaign(smoke), paperFigures(smoke),
	}
}
