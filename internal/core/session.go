package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/fenix"
	"repro/internal/kokkos"
	"repro/internal/kr"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/veloc"
)

// FailurePlan schedules one injected process failure: the process holding
// logical rank Slot exits just before executing iteration Iteration. The
// harness places Iteration ~95% of the way between two checkpoints so that
// asynchronous flushes have completed, matching the paper's protocol. A
// plan fires at most once per job, including across relaunches.
type FailurePlan struct {
	Slot      int
	Iteration int
	fired     atomic.Bool
}

func (fp *FailurePlan) matches(slot, iter int) bool {
	return fp != nil && slot == fp.Slot && iter == fp.Iteration && fp.fired.CompareAndSwap(false, true)
}

// Fired reports whether the plan has triggered.
func (fp *FailurePlan) Fired() bool { return fp.fired.Load() }

// Config selects and parameterizes a resilience strategy.
type Config struct {
	// Strategy is the layer combination to run.
	Strategy Strategy
	// Spares is the number of spare ranks Fenix holds out (Fenix
	// strategies only).
	Spares int
	// ShrinkOnExhaustion, when true, lets Fenix continue with a smaller
	// resilient communicator once the spare pool is exhausted instead of
	// failing the job (Fenix strategies only).
	ShrinkOnExhaustion bool
	// CheckpointInterval checkpoints every k-th iteration.
	CheckpointInterval int
	// CheckpointName names the checkpoint set.
	CheckpointName string
	// MaxRestarts bounds relaunches for fail-restart strategies.
	MaxRestarts int
	// RehostReserve is the number of extra world ranks Fenix holds behind
	// the spare pool as a second-line replacement reserve; drawing on it
	// re-hosts a failed slot instead of shrinking, keeping the lineage
	// width (and message-log slot identity) stable (Fenix strategies only).
	RehostReserve int
	// Failures lists the injected failures (nil for overhead-only runs).
	Failures []*FailurePlan
	// SDC configures the silent-data-corruption detection layer; the zero
	// value (policy none) runs regions bare and skips blob verification.
	SDC SDCConfig
}

func (c *Config) normalize() {
	if c.CheckpointName == "" {
		c.CheckpointName = "app"
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 1 << 30 // effectively never
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 4
	}
}

// progress tracks the furthest iteration each logical rank has executed,
// across failures and relaunches, so re-executed iterations are attributed
// to the Recompute category.
type progress struct {
	mu      sync.Mutex
	maxIter map[int]int
}

func newProgress() *progress { return &progress{maxIter: make(map[int]int)} }

func (g *progress) isRecompute(slot, iter int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	max, ok := g.maxIter[slot]
	return ok && iter <= max
}

func (g *progress) update(slot, iter int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if max, ok := g.maxIter[slot]; !ok || iter > max {
		g.maxIter[slot] = iter
	}
}

// Session is one rank's handle on the integrated resilience system. It is
// recreated on relaunch (process memory is lost) and persists across Fenix
// re-entries for survivors (memory intact).
type Session struct {
	p    *mpi.Proc
	cfg  *Config
	prog *progress

	comm   *mpi.Comm
	role   fenix.Role
	fctx   *fenix.Context // nil without Fenix
	krctx  *kr.Context    // nil without KR
	manual *manualCtx     // nil without hand-written control flow

	// Store persists application state (views, solver data) across Fenix
	// re-entries of the same process.
	Store map[string]any

	// liveIter is the highest iteration whose effects this process's live
	// data reflects in its current incarnation (-1 for none): advanced by
	// executed bodies and by checkpoint restores. Under localized recovery
	// it drives the survivor skip — a survivor pauses through iterations
	// its data already contains while the replacement replays. It is
	// per-process, NOT per-slot progress: an ex-replacement that survives
	// a second failure mid-replay holds data well behind its slot's
	// recorded maximum.
	liveIter int
	// collInstallPending marks a survivor that must rewind its collective
	// log cursor at the first boundary after a Fenix re-entry, so that
	// loop-level collectives re-executed across the skipped region are
	// served from the logged lineage.
	collInstallPending bool
	// replayStart is the virtual time a recovered rank's localized replay
	// began; consumed into mpi_replay_seconds when it crosses the log
	// frontier.
	replayStart   float64
	replayStarted bool
	// shadow is the boundary-entry image of the captured views for the
	// iteration last entered (shadowIter), kept only under localized
	// recovery. A failure can surface inside a body that already mutated
	// live data (e.g. MiniMD's half-kick and drift precede its halo
	// exchange); the surviving rank re-executes that iteration from the
	// shadow so the partial mutations are not applied twice.
	shadow     []kokkos.View
	shadowIter int
	// regions keeps each resilient region, by label, from one Region
	// call to the next, and with it the region's snapshot copies.
	regions map[string]*kokkos.Region
}

// noteStart records the session (re-)entry in the observability stream:
// once per plain session, and once per entry into the Fenix-protected body
// (so recoveries show up as fresh session_start events with the new role).
func (s *Session) noteStart() {
	s.p.Event(obs.LayerCore, obs.EvSessionStart,
		obs.KV("strategy", s.cfg.Strategy.String()),
		obs.KV("role", s.role.String()),
		obs.KV("logical_rank", s.Rank()))
}

// Proc returns the underlying MPI process.
func (s *Session) Proc() *mpi.Proc { return s.p }

// Comm returns the communicator application code must use: the resilient
// communicator under Fenix, MPI_COMM_WORLD otherwise.
func (s *Session) Comm() *mpi.Comm { return s.comm }

// Role returns the Fenix role (RoleInitial for non-Fenix strategies, since
// a relaunched process starts fresh).
func (s *Session) Role() fenix.Role { return s.role }

// Rank returns this rank's logical ID (resilient comm rank under Fenix).
func (s *Session) Rank() int { return s.comm.Rank(s.p) }

// Size returns the number of application ranks.
func (s *Session) Size() int { return s.comm.Size() }

// Strategy returns the active strategy.
func (s *Session) Strategy() Strategy { return s.cfg.Strategy }

// Check routes an MPI error to the Fenix recovery jump when running under
// Fenix, and returns it unchanged otherwise.
func (s *Session) Check(err error) error {
	if s.fctx != nil {
		return s.fctx.Check(err)
	}
	return err
}

// ResumeIteration returns the iteration the application loop should start
// from: -1 for a fresh start, or the latest checkpoint version when
// recovering (the Checkpoint call at that iteration restores data instead
// of executing, per Figure 4).
func (s *Session) ResumeIteration() int {
	switch {
	case s.krctx != nil:
		if s.krctx.RecoveryPending() {
			return s.krctx.LatestVersion()
		}
	case s.manual != nil:
		if s.manual.pending {
			return s.manual.latest
		}
	}
	return -1
}

// DeclareAliases forwards a swap-space alias declaration to the
// control-flow layer, or to the hand-written control flow for strategies
// without KR (a manual VeloC user would simply not register the swap
// buffer).
func (s *Session) DeclareAliases(primary, alias string) {
	if s.krctx != nil {
		s.krctx.DeclareAliases(primary, alias)
	}
	if s.manual != nil {
		if s.manual.aliases == nil {
			s.manual.aliases = make(map[string]bool)
		}
		s.manual.aliases[alias] = true
	}
}

// Census returns the most recent view classification (zero value without
// KR).
func (s *Session) Census() kr.Census {
	if s.krctx != nil {
		return s.krctx.Census()
	}
	return kr.Census{}
}

// localizedActive reports whether message-log localized recovery is in
// force: the strategy selects it, KR manages control flow, and the log has
// not been disabled by a shrink compaction.
func (s *Session) localizedActive() bool {
	return s.cfg.Strategy.Layers().Rollback == RollbackLocalized && s.krctx != nil && s.p.MsgLogActive()
}

// msgLogBoundary runs the DESIGN.md §12 checkpoint-region boundary
// protocol before iteration iter: record this slot's log cursors for a
// first-reached boundary, or install previously recorded ones when
// re-executing (replacement) or resuming (survivor).
func (s *Session) msgLogBoundary(slot, iter int) {
	if !s.localizedActive() {
		return
	}
	switch s.role {
	case fenix.RoleRecovered:
		// Replaying replacement: adopt the predecessor's cursors at every
		// boundary it recorded, so re-executed sends are suppressed and
		// receives/collectives are served from the log.
		if s.p.MsgLogInstall(slot, iter, true) {
			return
		}
		// No snapshot: the replay has crossed the log frontier and this
		// boundary is genuinely new.
		s.noteReplayDone()
		s.p.MsgLogRecord(slot, iter)
	case fenix.RoleSurvivor:
		if s.collInstallPending {
			// First boundary after re-entry: rewind only the collective
			// cursor so loop-level collectives re-executed across the
			// skipped region replay the logged lineage. The live p2p
			// cursors are ground truth for a survivor and stay put.
			s.collInstallPending = false
			s.p.MsgLogInstall(slot, iter, false)
		}
		if iter == s.liveIter+1 {
			// First live iteration. If this boundary was recorded, the
			// failure interrupted the iteration mid-body (or a previous
			// incarnation got further): rewind fully, so the partial
			// re-execution's sends are suppressed and its receives are
			// served from the log instead of double-delivering.
			if s.p.MsgLogInstall(slot, iter, true) {
				return
			}
		}
		if iter > s.liveIter {
			s.p.MsgLogRecord(slot, iter)
		}
	default:
		s.p.MsgLogRecord(slot, iter)
	}
}

// localizedSkip reports whether a survivor pauses through iteration iter
// under localized recovery: its live data already reflects the body, so
// nothing executes while the replacement replays. A pending restore at the
// restored iteration is consumed without touching data.
func (s *Session) localizedSkip(slot, iter int) bool {
	if !s.localizedActive() || s.role != fenix.RoleSurvivor || iter > s.liveIter {
		return false
	}
	if s.krctx.RecoveryPending() && iter == s.krctx.LatestVersion() {
		s.krctx.SkipRestore()
	}
	return true
}

// boundaryShadow maintains the localized-recovery boundary image of the
// captured views. Reaching the same boundary twice without completing it
// means the failure surfaced inside the body after it had already mutated
// live data (a survivor's partial iteration): the views are rewound to
// their boundary-entry image first, so the re-execution — whose sends are
// suppressed and receives log-served via the matching cursor snapshot —
// does not apply the body's leading mutations twice. First arrivals just
// record the image, as typed copies refreshed in place: in steady state a
// boundary costs no allocation.
func (s *Session) boundaryShadow(iter int, views []kokkos.View) {
	if !s.localizedActive() {
		return
	}
	if s.role == fenix.RoleSurvivor && s.shadowIter == iter && len(s.shadow) == len(views) {
		kokkos.Restore(views, s.shadow)
		return
	}
	kokkos.Snapshot(&s.shadow, views)
	s.shadowIter = iter
}

// noteReplayDone records the recovered rank's replay duration once, when
// its forward re-execution crosses the log frontier.
func (s *Session) noteReplayDone() {
	if !s.replayStarted {
		return
	}
	s.replayStarted = false
	s.p.Obs().Registry().Histogram(obs.MReplaySeconds, obs.TimeBuckets).
		Observe(s.p.Now() - s.replayStart)
}

// Checkpoint wraps one iteration of the application's checkpoint region:
// failure injection, recompute attribution, recovery-or-execute, and
// checkpoint writing are all handled according to the strategy.
func (s *Session) Checkpoint(label string, iter int, views []kokkos.View, body func() error) error {
	slot := s.Rank()
	s.msgLogBoundary(slot, iter)
	for _, fp := range s.cfg.Failures {
		if fp.matches(slot, iter) {
			s.p.Event(obs.LayerCore, obs.EvFailureInjected,
				obs.KV("slot", slot), obs.KV("iter", iter))
			s.p.Obs().Registry().Counter(obs.MFailuresInjected).Inc()
			s.p.Exit()
		}
	}
	s.p.Inject("core.iteration")
	if s.localizedSkip(slot, iter) {
		return nil
	}
	s.boundaryShadow(iter, views)
	if s.prog != nil {
		re := s.prog.isRecompute(slot, iter)
		// Under partial rollback survivors never roll their data back, so
		// re-executed loop indices are not wasted work — they advance the
		// solver. Only the recovered rank truly recomputes.
		if s.cfg.Strategy.Layers().Rollback == RollbackPartial && s.role != fenix.RoleRecovered {
			re = false
		}
		s.p.Recorder().SetRecompute(re)
		defer s.p.Recorder().SetRecompute(false)
		if re {
			s.p.Event(obs.LayerCore, obs.EvRecomputeBegin,
				obs.KV("slot", slot), obs.KV("iter", iter))
			s.p.Obs().Registry().Counter(obs.MRecomputeIters).Inc()
			defer func() {
				s.p.Event(obs.LayerCore, obs.EvRecomputeEnd,
					obs.KV("slot", slot), obs.KV("iter", iter))
			}()
		}
	}
	wasRestore := s.krctx != nil && s.krctx.RecoveryPending() && iter == s.krctx.LatestVersion()
	var err error
	switch {
	case s.krctx != nil:
		err = s.krctx.Checkpoint(label, iter, views, body)
	case s.manual != nil:
		err = s.manual.checkpoint(iter, views, body)
	default:
		err = body()
	}
	if err != nil {
		return s.Check(err)
	}
	if iter > s.liveIter {
		s.liveIter = iter
	}
	if wasRestore && s.localizedActive() && s.role == fenix.RoleRecovered &&
		!s.p.MsgLogHasSnapshot(slot, iter+1) {
		// The predecessor died after committing this version but before
		// entering the next iteration, so there is no successor boundary
		// snapshot to install — yet the restored iteration's traffic is
		// all in the log with this rank's fresh cursors behind it. Jump
		// the cursors to the stream frontiers so live execution resumes
		// without wrongly suppressing future sends.
		s.p.MsgLogFastForward(slot)
	}
	if s.prog != nil {
		s.prog.update(slot, iter)
	}
	return nil
}

// manualCtx is the hand-written control flow a developer would pair with
// raw VeloC: protect the views once, restore at the resume iteration, and
// checkpoint on the interval. It exists so the no-KR configurations
// (StrategyVeloC, StrategyFenixVeloC) exercise the same application code.
type manualCtx struct {
	client   *veloc.Client
	name     string
	interval int
	latest   int
	pending  bool
	guarded  bool // views protected
	aliases  map[string]bool
}

// viewRegion adapts a kokkos view as a VeloC region.
type viewRegion struct{ v kokkos.View }

func (r viewRegion) Bytes() []byte          { return r.v.Serialize() }
func (r viewRegion) Restore(b []byte) error { return r.v.Deserialize(b) }
func (r viewRegion) SimBytes() int          { return r.v.SimBytes() }

// resync agrees on the best version restorable at every rank of comm and
// arms its restore, or disarms recovery when there is none.
func (m *manualCtx) resync(comm *mpi.Comm) error {
	v, err := m.client.BestCommonVersion(m.name, comm)
	switch {
	case err == nil:
		m.latest, m.pending = v, true
		return nil
	case errors.Is(err, veloc.ErrNoCheckpoint):
		m.latest, m.pending = -1, false
		return nil
	default:
		return err
	}
}

func (m *manualCtx) protect(views []kokkos.View) {
	if m.guarded {
		return
	}
	unique := kr.CensusOf(views, m.aliases).CheckpointedViews()
	for i, v := range unique {
		m.client.Protect(i, viewRegion{v})
	}
	m.guarded = true
}

func (m *manualCtx) checkpoint(iter int, views []kokkos.View, body func() error) error {
	m.protect(views)
	if m.pending && iter == m.latest {
		m.pending = false
		return m.client.Restart(m.name, iter)
	}
	if err := body(); err != nil {
		return err
	}
	if (iter+1)%m.interval == 0 {
		if err := m.client.Checkpoint(m.name, iter); err != nil {
			return err
		}
		m.latest = iter
	}
	return nil
}
