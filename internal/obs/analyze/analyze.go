// Package analyze turns the raw resilience event stream of internal/obs
// into the paper's evaluation currency: typed recovery spans — one per
// communicator repair (or fail-restart relaunch) — segmented into
// detection, communicator repair, rebuild, state restoration, and
// recompute phases, plus aggregate per-phase totals and per-generation
// checkpoint/flush accounting. Spans are reconstructed purely from the
// ordered event log, so the same analysis applies to an in-memory
// []obs.Event (tests, harnesses) and to an events JSONL file read back
// with ReadJSONL (the cmd/obsreport CLI).
//
// The span semantics and the report schema are documented in the
// "Analysis" section of OBSERVABILITY.md; PhaseNames is its
// machine-readable form, cross-checked by a test the same way EventNames
// is.
package analyze

import (
	"errors"
	"math"
	"sort"

	"repro/internal/obs"
)

// Phase names, in causal order. Each names one segment of a recovery span.
const (
	PhaseDetection  = "detection"   // failure injection -> first peer detection
	PhaseCommRepair = "comm_repair" // first detection -> last revoke/shrink/agree
	PhaseRebuild    = "rebuild"     // ULFM ops done -> repaired communicator in place
	PhaseRestore    = "restore"     // repair -> last checkpoint restore committed
	PhaseRecompute  = "recompute"   // first re-executed iteration -> last one done
)

// PhaseNames returns every span phase in causal order, the
// machine-readable form of the Analysis section in OBSERVABILITY.md.
func PhaseNames() []string {
	return []string{PhaseDetection, PhaseCommRepair, PhaseRebuild, PhaseRestore, PhaseRecompute}
}

// PhaseBreakdown holds one duration per recovery phase, in virtual
// seconds.
type PhaseBreakdown struct {
	Detection  float64 `json:"detection_s"`
	CommRepair float64 `json:"comm_repair_s"`
	Rebuild    float64 `json:"rebuild_s"`
	Restore    float64 `json:"restore_s"`
	Recompute  float64 `json:"recompute_s"`
}

// Get returns the duration of the named phase (0 for unknown names).
func (p PhaseBreakdown) Get(phase string) float64 {
	switch phase {
	case PhaseDetection:
		return p.Detection
	case PhaseCommRepair:
		return p.CommRepair
	case PhaseRebuild:
		return p.Rebuild
	case PhaseRestore:
		return p.Restore
	case PhaseRecompute:
		return p.Recompute
	}
	return 0
}

// Total returns the sum over all phases.
func (p PhaseBreakdown) Total() float64 {
	return p.Detection + p.CommRepair + p.Rebuild + p.Restore + p.Recompute
}

func (p *PhaseBreakdown) accumulate(q PhaseBreakdown) {
	p.Detection += q.Detection
	p.CommRepair += q.CommRepair
	p.Rebuild += q.Rebuild
	p.Restore += q.Restore
	p.Recompute += q.Recompute
}

// RankPhases is one rank's view of a recovery span: how long until this
// rank observed the failure, how long its own state restoration took, and
// how much wall time it spent re-executing iterations.
type RankPhases struct {
	Rank      int     `json:"rank"`
	Detection float64 `json:"detection_s,omitempty"`
	Restore   float64 `json:"restore_s,omitempty"`
	Recompute float64 `json:"recompute_s,omitempty"`
}

// Span is one reconstructed recovery episode: a set of injected failures
// repaired together by one Fenix communicator rebuild (Kind "fenix") or
// one fail-restart relaunch (Kind "relaunch").
type Span struct {
	Index int `json:"index"`
	// Kind is "fenix" for an online communicator repair, "relaunch" for a
	// fail-restart job relaunch.
	Kind string `json:"kind"`
	// Generation is the Fenix repair generation, or the launch attempt for
	// relaunch spans.
	Generation int `json:"generation"`
	// FailedSlots lists the logical ranks whose failures this span
	// repairs, in injection order.
	FailedSlots []int `json:"failed_slots,omitempty"`
	// Replaced and Shrunk count how the rebuild disposed of the failed
	// slots (spare substitution vs compaction); relaunch spans report all
	// failures as Replaced.
	Replaced int `json:"replaced"`
	Shrunk   int `json:"shrunk"`
	// Start is the first failure injection, Repair the moment the repaired
	// communicator (or relaunched job) was in place, End the end of the
	// last restoration or recompute activity — all absolute virtual times.
	Start  float64 `json:"start_s"`
	Repair float64 `json:"repair_s"`
	End    float64 `json:"end_s"`
	// CriticalPath is End - Start: the wall-clock recovery cost along the
	// slowest chain, the quantity the paper's failure-cost bars stack.
	CriticalPath float64 `json:"critical_path_s"`
	// RecomputedIters counts re-executed iterations attributed to this
	// span, across all ranks.
	RecomputedIters int `json:"recomputed_iters"`
	// ReplayedMsgs counts message-log replay deliveries (mpi.msg_replayed
	// events) attributed to this span's recompute window: under localized
	// recovery the replacement's re-execution is fed from the log, so a
	// span with replayed messages recomputed on one rank while survivors
	// paused in place.
	ReplayedMsgs int `json:"replayed_msgs,omitempty"`
	// FlushWaitSeconds sums the scheduler queue wait (flush_start
	// wait_seconds) of flushes started inside the span's window — how much
	// flush backlog overlapped this recovery episode.
	FlushWaitSeconds float64 `json:"flush_wait_seconds,omitempty"`
	// Phases is the critical-path duration of each recovery phase.
	Phases PhaseBreakdown `json:"phases"`
	// PerRank breaks detection/restore/recompute down by world rank.
	PerRank []RankPhases `json:"per_rank,omitempty"`
}

// CheckpointGen aggregates the veloc.* data-layer events of one checkpoint
// version (generation): scratch-copy and flush accounting, and how often
// the version was used for restart.
type CheckpointGen struct {
	Version          int     `json:"version"`
	Checkpoints      int     `json:"checkpoints"`
	Bytes            int64   `json:"bytes"`
	ScratchSeconds   float64 `json:"scratch_seconds"`
	Flushes          int     `json:"flushes"`
	FlushesCompleted int     `json:"flushes_completed"`
	FlushSeconds     float64 `json:"flush_seconds"`
	Restores         int     `json:"restores"`
	// Flush-scheduler accounting (zero when scheduling is off). A flush
	// queued but never started was either coalesced away by a newer
	// version (no event: the submitter's counter carries it) or discarded
	// with its node — daemon crash or scratch loss, e.g. the owner rank
	// shrunk away mid-queue — which emits veloc.flush_discarded:
	// FlushesQueued - FlushesStarted = coalesced + FlushesDiscarded.
	FlushesQueued    int     `json:"flushes_queued,omitempty"`
	FlushesStarted   int     `json:"flushes_started,omitempty"`
	FlushesDiscarded int     `json:"flushes_discarded,omitempty"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
}

// HistStats summarizes one latency distribution through an obs.Histogram:
// sample count, mean, and bucket-interpolated p50/p99 via
// obs.Histogram.Quantile over obs.TimeBuckets.
type HistStats struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// histStats snapshots a histogram, or nil when it never observed (its
// quantiles would be NaN, which the report's JSON form cannot carry).
func histStats(h *obs.Histogram) *HistStats {
	n := h.Count()
	if n == 0 {
		return nil
	}
	return &HistStats{
		Count: n,
		Mean:  h.Sum() / float64(n),
		P50:   h.Quantile(0.5),
		P99:   h.Quantile(0.99),
	}
}

// Report is the full analysis of one event log.
type Report struct {
	Events             int     `json:"events"`
	Ranks              int     `json:"ranks"`
	Launches           int     `json:"launches"`
	WallSeconds        float64 `json:"wall_seconds"`
	JobFailed          bool    `json:"job_failed"`
	FailuresInjected   int     `json:"failures_injected"`
	FailuresRepaired   int     `json:"failures_repaired"`
	FailuresUnrepaired int     `json:"failures_unrepaired"`
	// SpareKills counts chaos kills of spare ranks still blocked in Fenix
	// initialization. A dead spare is pruned from the pool, never joins the
	// communicator, and so is not a failure the repair protocol must
	// survive; it is accounted separately from FailuresInjected.
	SpareKills int `json:"spare_kills,omitempty"`
	// Shrinks counts mpi.shrink events: explicit ULFM shrink collectives
	// plus the implicit compaction a Fenix rebuild performs when the spare
	// pool is exhausted with ShrinkOnExhaustion enabled.
	Shrinks int `json:"mpi_shrinks,omitempty"`
	// SDC lifecycle counts from the chaos.sdc_* event stream. Injected must
	// equal Detected + Escaped (every flip is resolved somewhere); Replays
	// and Votes sum the extra executions carried on detection events.
	SDCInjected  int             `json:"sdc_injected,omitempty"`
	SDCDetected  int             `json:"sdc_detected,omitempty"`
	SDCCorrected int             `json:"sdc_corrected,omitempty"`
	SDCEscaped   int             `json:"sdc_escaped,omitempty"`
	SDCReplays   int             `json:"sdc_replays,omitempty"`
	SDCVotes     int             `json:"sdc_votes,omitempty"`
	Spans        []Span          `json:"spans"`
	PhaseTotals  PhaseBreakdown  `json:"phase_totals"`
	Checkpoints  []CheckpointGen `json:"checkpoints,omitempty"`
	// FlushSeconds and FlushQueueWait are the per-flush latency
	// distributions reconstructed from the event stream — flush duration
	// from every veloc.flush_end (the veloc_flush_seconds histogram's event
	// mirror) and scheduler queue wait from every veloc.flush_start
	// wait_seconds (mirroring veloc_flush_queue_wait_seconds) — summarized
	// through obs.Histogram.Quantile. Nil when the run had no such events.
	FlushSeconds   *HistStats `json:"veloc_flush_seconds,omitempty"`
	FlushQueueWait *HistStats `json:"veloc_flush_queue_wait_seconds,omitempty"`
}

// failure is one observed failure injection awaiting repair.
type failure struct {
	time     float64
	slot     int
	assigned bool
}

// anchor is one repair completion: a Fenix rebuild or a relaunch.
type anchor struct {
	kind     string
	time     float64
	gen      int
	replaced int
	shrunk   int
}

// Analyze reconstructs recovery spans and aggregate accounting from an
// event log in obs.SortEvents order, as Recorder.Events and ReadJSONL
// return it. It does not modify events.
func Analyze(events []obs.Event) (*Report, error) {
	if len(events) == 0 {
		return nil, errors.New("analyze: empty event log")
	}

	rep := &Report{Events: len(events)}

	// Pass 1: job shape, failures, repair anchors, checkpoint accounting.
	// A private registry rebuilds the flush-latency histograms from event
	// attributes so the report can surface Quantile estimates without the
	// run's own metrics snapshot.
	var failures []*failure
	var anchors []anchor
	hists := obs.NewRegistry()
	flushDur := hists.Histogram(obs.MFlushSeconds, nil)
	queueWait := hists.Histogram(obs.MFlushQueueWaitSeconds, nil)
	gens := map[int]*CheckpointGen{}
	gen := func(e obs.Event) *CheckpointGen {
		v, _ := attrInt(e, "version")
		g, ok := gens[v]
		if !ok {
			g = &CheckpointGen{Version: v}
			gens[v] = g
		}
		return g
	}
	for _, e := range events {
		switch e.Name {
		case obs.EvJobLaunch:
			rep.Launches++
			if rep.Ranks == 0 {
				rep.Ranks, _ = attrInt(e, "ranks")
			}
			if attempt, ok := attrInt(e, "attempt"); ok && attempt >= 1 {
				anchors = append(anchors, anchor{kind: "relaunch", time: e.Time, gen: attempt})
			}
		case obs.EvJobEnd:
			rep.WallSeconds = e.Time
			if w, ok := attrNum(e, "wall_seconds"); ok {
				rep.WallSeconds = w
			}
			rep.JobFailed, _ = attrBool(e, "failed")
		case obs.EvFailureInjected:
			slot, _ := attrInt(e, "slot")
			failures = append(failures, &failure{time: e.Time, slot: slot})
		case obs.EvChaosKill:
			// Chaos-engine kills at arbitrary execution points. Spare kills
			// never enter the repair protocol; member kills are failures like
			// core.failure_injected ones (slot = the victim's world rank).
			if spare, _ := attrBool(e, "spare"); spare {
				rep.SpareKills++
				break
			}
			failures = append(failures, &failure{time: e.Time, slot: e.Rank})
		case obs.EvShrink:
			rep.Shrinks++
		case obs.EvSDCInjected:
			rep.SDCInjected++
		case obs.EvSDCDetected:
			rep.SDCDetected++
			if n, ok := attrInt(e, "replays"); ok {
				rep.SDCReplays += n
			}
			if n, ok := attrInt(e, "votes"); ok {
				rep.SDCVotes += n
			}
		case obs.EvSDCCorrected:
			rep.SDCCorrected++
		case obs.EvSDCEscaped:
			rep.SDCEscaped++
		case obs.EvFenixRebuild:
			a := anchor{kind: "fenix", time: e.Time}
			a.gen, _ = attrInt(e, "generation")
			a.replaced, _ = attrInt(e, "replaced")
			a.shrunk, _ = attrInt(e, "shrunk")
			anchors = append(anchors, a)
		case obs.EvVeloCCheckpoint:
			g := gen(e)
			g.Checkpoints++
			if b, ok := attrNum(e, "bytes"); ok {
				g.Bytes += int64(b)
			}
			if s, ok := attrNum(e, "scratch_seconds"); ok {
				g.ScratchSeconds += s
			}
		case obs.EvVeloCFlushBegin:
			gen(e).Flushes++
		case obs.EvVeloCFlushQueued:
			gen(e).FlushesQueued++
		case obs.EvVeloCFlushStart:
			g := gen(e)
			g.FlushesStarted++
			if w, ok := attrNum(e, "wait_seconds"); ok {
				g.QueueWaitSeconds += w
				queueWait.Observe(w)
			}
		case obs.EvVeloCFlushEnd:
			g := gen(e)
			g.FlushesCompleted++
			if s, ok := attrNum(e, "seconds"); ok {
				g.FlushSeconds += s
				flushDur.Observe(s)
			}
		case obs.EvVeloCFlushDiscarded:
			gen(e).FlushesDiscarded++
		case obs.EvVeloCRestart:
			gen(e).Restores++
		}
	}
	if rep.WallSeconds == 0 {
		rep.WallSeconds = events[len(events)-1].Time
	}
	rep.FailuresInjected = len(failures)
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].time < anchors[j].time })

	// Pass 2: assign failures to the next repair anchor and segment each
	// episode into phases.
	for i, a := range anchors {
		var spanFailures []*failure
		for _, f := range failures {
			if !f.assigned && f.time <= a.time {
				f.assigned = true
				spanFailures = append(spanFailures, f)
			}
		}
		// A repair without an observed injection (e.g. a ring-truncated log)
		// anchors the span at the repair itself: start stays a.time.
		start := a.time
		var slots []int
		for _, f := range spanFailures {
			if f.time < start {
				start = f.time
			}
			slots = append(slots, f.slot)
		}
		// The episode's post-repair activity ends where the next failure
		// begins (or at the end of the log).
		windowEnd := math.Inf(1)
		for _, f := range failures {
			if !f.assigned && f.time > a.time && f.time < windowEnd {
				windowEnd = f.time
			}
		}
		if i+1 < len(anchors) && anchors[i+1].time < windowEnd {
			windowEnd = anchors[i+1].time
		}

		sp := buildSpan(events, a, start, windowEnd)
		sp.Index = len(rep.Spans)
		sp.FailedSlots = slots
		if a.kind == "relaunch" {
			sp.Replaced = len(spanFailures)
		}
		rep.FailuresRepaired += sp.Replaced + sp.Shrunk
		rep.PhaseTotals.accumulate(sp.Phases)
		rep.Spans = append(rep.Spans, sp)
	}
	for _, f := range failures {
		if !f.assigned {
			rep.FailuresUnrepaired++
		}
	}

	for _, g := range gens {
		rep.Checkpoints = append(rep.Checkpoints, *g)
	}
	sort.Slice(rep.Checkpoints, func(i, j int) bool {
		return rep.Checkpoints[i].Version < rep.Checkpoints[j].Version
	})
	rep.FlushSeconds = histStats(flushDur)
	rep.FlushQueueWait = histStats(queueWait)
	return rep, nil
}

// buildSpan segments one recovery episode. Pre-repair events (detection,
// ULFM revoke/shrink/agree) are scanned in [start, a.time]; post-repair
// events (restores, recompute) in [a.time, windowEnd).
func buildSpan(events []obs.Event, a anchor, start, windowEnd float64) Span {
	sp := Span{
		Kind:       a.kind,
		Generation: a.gen,
		Replaced:   a.replaced,
		Shrunk:     a.shrunk,
		Start:      start,
		Repair:     a.time,
	}
	perRank := map[int]*RankPhases{}
	rank := func(r int) *RankPhases {
		rp, ok := perRank[r]
		if !ok {
			rp = &RankPhases{Rank: r}
			perRank[r] = rp
		}
		return rp
	}

	firstDetect, lastComm := math.Inf(1), math.Inf(-1)
	restoreEnd := math.Inf(-1)
	firstRecompute, lastRecompute := math.Inf(1), math.Inf(-1)
	restoreBegin := map[int]float64{}   // rank -> open kr.restore_begin time
	recomputeBegin := map[int]float64{} // rank -> open core.recompute_begin time

	for _, e := range events {
		if e.Time < start || e.Time >= windowEnd {
			continue
		}
		switch e.Name {
		case obs.EvFailureDetected:
			if e.Time > a.time {
				break
			}
			if e.Time < firstDetect {
				firstDetect = e.Time
			}
			if rp := rank(e.Rank); rp.Detection == 0 {
				rp.Detection = e.Time - start
			}
		case obs.EvRevoke, obs.EvShrink, obs.EvAgree:
			if e.Time <= a.time && e.Time > lastComm {
				lastComm = e.Time
			}
		case obs.EvKRRestoreBegin:
			if e.Time >= a.time {
				restoreBegin[e.Rank] = e.Time
			}
		case obs.EvKRRestoreEnd:
			if e.Time < a.time {
				break
			}
			if b, ok := restoreBegin[e.Rank]; ok {
				rank(e.Rank).Restore += e.Time - b
				delete(restoreBegin, e.Rank)
			}
			if e.Time > restoreEnd {
				restoreEnd = e.Time
			}
		case obs.EvVeloCRestart, obs.EvFenixIMRRestore:
			if e.Time < a.time {
				break
			}
			if e.Time > restoreEnd {
				restoreEnd = e.Time
			}
			// Without a surrounding KR region (manual control flow), the
			// restart's own duration is the rank's restore time.
			if _, open := restoreBegin[e.Rank]; !open && e.Name == obs.EvVeloCRestart {
				if s, ok := attrNum(e, "seconds"); ok {
					rank(e.Rank).Restore += s
				}
			}
		case obs.EvVeloCFlushStart:
			if w, ok := attrNum(e, "wait_seconds"); ok {
				sp.FlushWaitSeconds += w
			}
		case obs.EvMsgReplayed:
			if e.Time >= a.time {
				sp.ReplayedMsgs++
			}
		case obs.EvRecomputeBegin:
			if e.Time < a.time {
				break
			}
			sp.RecomputedIters++
			recomputeBegin[e.Rank] = e.Time
			if e.Time < firstRecompute {
				firstRecompute = e.Time
			}
		case obs.EvRecomputeEnd:
			if e.Time < a.time {
				break
			}
			if b, ok := recomputeBegin[e.Rank]; ok {
				rank(e.Rank).Recompute += e.Time - b
				delete(recomputeBegin, e.Rank)
			}
			if e.Time > lastRecompute {
				lastRecompute = e.Time
			}
		}
	}

	detectAt := firstDetect
	if math.IsInf(detectAt, 1) {
		detectAt = start // never observed: detection phase collapses to 0
	}
	commAt := lastComm
	if math.IsInf(commAt, -1) || commAt < detectAt {
		commAt = detectAt // no ULFM ops recorded: comm repair collapses to 0
	}
	sp.Phases.Detection = detectAt - start
	sp.Phases.CommRepair = commAt - detectAt
	sp.Phases.Rebuild = a.time - commAt
	if restoreEnd > a.time {
		sp.Phases.Restore = restoreEnd - a.time
	}
	if lastRecompute > firstRecompute {
		sp.Phases.Recompute = lastRecompute - firstRecompute
	}

	sp.End = a.time
	if restoreEnd > sp.End {
		sp.End = restoreEnd
	}
	if lastRecompute > sp.End {
		sp.End = lastRecompute
	}
	sp.CriticalPath = sp.End - sp.Start

	for _, rp := range perRank {
		sp.PerRank = append(sp.PerRank, *rp)
	}
	sort.Slice(sp.PerRank, func(i, j int) bool { return sp.PerRank[i].Rank < sp.PerRank[j].Rank })
	return sp
}
