package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/apps/heatdis"
	"repro/internal/apps/minimd"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
)

type chaosParams struct {
	Seeds        int      // chaos seeds per unit, before the mode filter
	Windows      int      // distinct seed windows a -seed can select
	SeedWindow   string   // how -seed picks the window
	SkippedModes []string // campaign modes left out (see chaosCampaign)
	TimeoutS     float64
}

// chaosSkipped are the campaign modes the workload leaves out because, on
// the seed tree, runs of them fail at random (see chaosCampaign).
var chaosSkipped = []string{
	chaos.ModeSpare, chaos.ModeStormShrink, chaos.ModeStormFail, chaos.ModeStormWave,
	chaos.ModeLocalized, chaos.ModeLocalizedShrink,
}

// chaosCell is the matrix size: 16 modes × 2 apps, cell = seed mod 32.
var chaosCell = len(chaos.Modes) * len(chaos.Apps)

// chaosCampaign is ~560 tiny jobs with obs always on: job set-up and
// teardown, obs emit and invariant reconciliation, the chaos engine, the SDC
// ladder, minimd physics and GC pressure dominate; per-collective engine
// cost is negligible at 4 ranks.
//
// A workload must be one on which no operation fails, and on the seed tree
// the full campaign is not (README.md, "Known gaps", has the counts): seeds
// from 1274 on include deterministic hangs, so the seeds come from the range
// [0, 1248); and runs of the six modes in chaosSkipped hang, violate an
// invariant or panic the process about once in 2000-30000 runs, so those
// modes are left out. The ten modes kept ran 80 000 times without a failure.
// A run that hangs leaks its rank goroutines, so the unit stops at the first
// hang instead of sweeping on as chaos.RunCampaign does; that, the mode
// filter and counting streamed events on traced runs are why the loop below
// drives chaos.RunOneStreaming itself.
func chaosCampaign(smoke bool) workload {
	p := chaosParams{Seeds: 28 * chaosCell, Windows: 12, SeedWindow: "[32·(seed mod 12), +896)", SkippedModes: chaosSkipped, TimeoutS: 5}
	if smoke {
		p.Seeds, p.SeedWindow = chaosCell, "[32·(seed mod 12), +32)"
	}
	skip := make(map[string]bool)
	for _, m := range chaosSkipped {
		skip[m] = true
	}
	timeout := time.Duration(p.TimeoutS * float64(time.Second))
	configs := func(seed uint64) ([]chaos.RunConfig, error) {
		var out []chaos.RunConfig
		for _, s := range chaos.SeedRange(uint64(chaosCell)*(seed%uint64(p.Windows)), p.Seeds) {
			cfg, err := chaos.ConfigForSeed(s, "", "")
			if err != nil {
				return nil, err
			}
			if !skip[cfg.Mode] {
				out = append(out, cfg)
			}
		}
		return out, nil
	}
	return workload{
		Name:   "chaos_campaign",
		Why:    "560 tiny chaos runs (the ten modes that never fail on the seed tree), obs always on: job set-up/teardown, obs emit and invariant reconciliation, chaos, SDC ladder, minimd physics, GC pressure",
		Params: p, UnitSeconds: 3.4,
		Setup: func(seed uint64) (any, error) {
			cfgs, err := configs(seed)
			if err != nil {
				return nil, err
			}
			ref := &chaosRef{cfgs: cfgs, cache: chaos.NewRefCache(), noneWall: make(map[chaosGeom]float64)}
			for _, cfg := range cfgs {
				// Prime the checksum cache so that no unit pays for a
				// reference run inside its measured window.
				if _, err := ref.cache.Checksum(cfg); err != nil {
					return nil, err
				}
				g := geomOf(cfg)
				if _, ok := ref.noneWall[g]; ok {
					continue
				}
				w, err := chaosNoneWall(g, seed)
				if err != nil {
					return nil, err
				}
				ref.noneWall[g] = w
			}
			return ref, nil
		},
		Unit: func(seed uint64, r any, tr *tracer) *unitResult {
			ref := r.(*chaosRef)
			u := newUnit()
			u.add("chaos.hangs", 0) // measured zeros, not "not exposed"
			u.add("chaos.violations", 0)
			// Traced runs stream the event log into a counter; a nil writer
			// leaves streaming off, as chaos.RunOne does.
			runOnce := func(cfg chaos.RunConfig) (*chaos.RunReport, *eventCounter) {
				var events *eventCounter
				var stream io.Writer
				if tr != nil {
					events = newEventCounter()
					stream = events
				}
				defer tr.begin("chaos.RunOneStreaming")()
				return chaos.RunOneStreaming(cfg, ref.cache, timeout, stream), events
			}
			for _, cfg := range ref.cfgs {
				rep, events := runOnce(cfg)
				if rep.Hung {
					// chaos has its own watchdog; as in guarded, a run
					// that trips it gets one more attempt.
					u.trips++
					u.add("chaos.hangs", 1)
					fmt.Fprintf(os.Stderr, "bench: chaos seed %d (%s/%s) exceeded its %s watchdog; retrying once\n", cfg.Seed, cfg.App, cfg.Mode, timeout)
					rep, events = runOnce(cfg)
				}
				u.op(rep.OK(), "chaos seed %d (%s/%s): %v", cfg.Seed, cfg.App, cfg.Mode, rep.Violations)
				u.add("chaos.runs", 1)
				if rep.Hung {
					u.add("chaos.hangs", 1)
					u.hung = true
					break
				}
				if !rep.OK() {
					u.add("chaos.violations", 1)
				}
				u.virtWall += rep.WallSeconds
				u.virtCost += rep.WallSeconds - ref.noneWall[geomOf(cfg)]
				addChaosCounts(u, rep, events)
			}
			return u
		},
	}
}

// chaosGeom is what a chaos cell's StrategyNone wall time depends on.
type chaosGeom struct {
	App                                  string
	Ranks, RanksPerNode, Iters, Interval int
}

func geomOf(cfg chaos.RunConfig) chaosGeom {
	return chaosGeom{cfg.App, cfg.Ranks, cfg.RanksPerNode, cfg.Iters, cfg.Interval}
}

type chaosRef struct {
	cfgs     []chaos.RunConfig
	cache    *chaos.RefCache
	noneWall map[chaosGeom]float64
}

// chaosNoneWall runs a campaign cell's application under StrategyNone with
// no faults and returns its virtual wall time. chaos.RefCache does run that
// job but keeps only its checksum, so the application is rebuilt here with
// the sizes chaos.buildApp uses for campaign cells of up to 1024 ranks.
func chaosNoneWall(g chaosGeom, seed uint64) (float64, error) {
	var app core.App
	switch g.App {
	case chaos.AppHeatdis:
		bytesPerRank := 8 << 20
		if g.Ranks > 8 {
			bytesPerRank = 512 << 10
		}
		app = heatdis.App(heatdis.Config{BytesPerRank: bytesPerRank, Iterations: g.Iters, CheckpointInterval: g.Interval}, heatdis.NewSink())
	case chaos.AppMiniMD:
		app = minimd.App(minimd.Config{Steps: g.Iters, CheckpointInterval: g.Interval}, minimd.NewSink())
	default:
		return 0, fmt.Errorf("chaos reference: unknown app %q", g.App)
	}
	res := core.Run(
		mpi.JobConfig{Ranks: g.Ranks, RanksPerNode: g.RanksPerNode, Seed: seed},
		core.Config{Strategy: core.StrategyNone, CheckpointInterval: g.Interval, CheckpointName: "chaos"},
		app)
	if err := res.Err(); err != nil {
		return 0, fmt.Errorf("chaos reference %v: %w", g, err)
	}
	return res.WallTime, nil
}

// addChaosCounts folds one run's cross-layer accounting into the work
// counts: the report's counters, plus (traced runs) event names counted off
// the JSONL stream for the counters a report does not carry.
func addChaosCounts(u *unitResult, rep *chaos.RunReport, events *eventCounter) {
	for name, v := range map[string]int{
		"mpi.rank_iters":          rep.Ranks * rep.Iters,
		"mpi.msgs_logged":         rep.MsgsLogged,
		"mpi.msgs_replayed":       rep.MsgsReplayed,
		"mpi.shrinks":             rep.Shrinks,
		"fenix.rebuilds":          rep.Rebuilds,
		"fenix.spares_activated":  rep.SparesActivated,
		"fenix.rehosts":           rep.Rehosts,
		"veloc.flushes_coalesced": rep.FlushesCoalesced,
		"veloc.flushes_discarded": rep.FlushesDiscarded,
		"cluster.flush_reorders":  rep.FlushReorders,
		"core.job_launches":       rep.Launches,
		"core.failures_injected":  rep.Injected,
		"core.failures_survived":  rep.Survived,
		"kokkos.sdc_detected":     rep.SDCDetected,
		"kokkos.sdc_escaped":      rep.SDCEscaped,
		"kokkos.sdc_replays":      rep.SDCReplays,
		"kokkos.sdc_votes":        rep.SDCVotes,
	} {
		u.add(name, float64(v))
	}
	if events == nil {
		return
	}
	u.add("obs.events", float64(events.total))
	for name, ev := range map[string]string{
		"mpi.revokes":           obs.EvRevoke,
		"mpi.agreements":        obs.EvAgree,
		"fenix.imr_checkpoints": obs.EvFenixIMRExchange,
		"veloc.checkpoints":     obs.EvVeloCCheckpoint,
		"veloc.restores":        obs.EvVeloCRestart,
		"veloc.flushes":         obs.EvVeloCFlushBegin,
	} {
		u.add(name, float64(events.byName[ev]))
	}
}

// eventCounter is an io.Writer for an obs JSONL stream that keeps only how
// many events of each name went by.
type eventCounter struct {
	total   int
	byName  map[string]int
	partial []byte
}

func newEventCounter() *eventCounter { return &eventCounter{byName: make(map[string]int)} }

var eventKey = []byte(`"event":"`)

func (c *eventCounter) Write(p []byte) (int, error) {
	c.partial = append(c.partial, p...)
	for {
		nl := bytes.IndexByte(c.partial, '\n')
		if nl < 0 {
			return len(p), nil
		}
		line := c.partial[:nl]
		c.total++
		if i := bytes.Index(line, eventKey); i >= 0 {
			name := line[i+len(eventKey):]
			if j := bytes.IndexByte(name, '"'); j >= 0 {
				c.byName[string(name[:j])]++
			}
		}
		c.partial = c.partial[nl+1:]
	}
}
