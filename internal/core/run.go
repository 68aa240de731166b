package core

import (
	"fmt"

	"repro/internal/fenix"
	"repro/internal/kokkos"
	"repro/internal/kr"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/veloc"
)

// App is the application body written against the Session API. It is
// invoked once per rank per (re-)entry: after a relaunch (fail-restart
// strategies) or a Fenix recovery (online strategies), exactly as the code
// between Fenix_Init and Fenix_Finalize in Figure 4.
type App func(s *Session) error

// Result is the outcome of a strategy run.
type Result struct {
	*mpi.JobResult
	Strategy Strategy
	// AppRanks is the number of application (non-spare) ranks.
	AppRanks int
}

// MeanAppTimes averages category times over application ranks only; spare
// ranks spend the run blocked in Fenix initialization and would dilute the
// per-rank averages the paper plots.
func (r *Result) MeanAppTimes() trace.Times {
	var sum trace.Times
	n := r.AppRanks
	if n > len(r.PerRank) {
		n = len(r.PerRank)
	}
	// Under Fenix, a spare that replaced a failed rank carries that logical
	// rank's post-recovery time; fold every world rank's time in but divide
	// by the number of application ranks.
	for _, t := range r.PerRank {
		sum = sum.Add(t)
	}
	return sum.Scale(1 / float64(n))
}

// TimesWithOther returns the mean per-rank category times with the Other
// category derived from job wall time, the paper's presentation.
func (r *Result) TimesWithOther() trace.Times {
	return r.MeanAppTimes().WithOther(r.WallTime)
}

// Run executes app under the given strategy on a simulated job.
func Run(job mpi.JobConfig, cfg Config, app App) *Result {
	cfg.normalize()
	layers := cfg.Strategy.Layers()
	if layers.Rollback == RollbackRelaunch {
		job.FailRestart = true
		job.MaxRestarts = cfg.MaxRestarts
	}
	if layers.Process != ProcessFenix && (cfg.Spares != 0 || cfg.RehostReserve != 0) {
		panic(fmt.Sprintf("core: strategy %v cannot use spares", cfg.Strategy))
	}
	if layers.Rollback == RollbackLocalized {
		// Localized recovery needs the sender-based message log capturing
		// from the first iteration on.
		job.MsgLog = true
	}
	appRanks := job.Ranks - cfg.Spares - cfg.RehostReserve
	if appRanks <= 0 {
		panic("core: no application ranks left after spares")
	}
	prog := newProgress()
	res := mpi.RunJob(job, func(p *mpi.Proc) error {
		return runRank(p, &cfg, prog, app)
	})
	return &Result{JobResult: res, Strategy: cfg.Strategy, AppRanks: appRanks}
}

func runRank(p *mpi.Proc, cfg *Config, prog *progress, app App) error {
	if cfg.Strategy.Layers().Process != ProcessFenix {
		// Without Fenix the session is rebuilt on every relaunch, and the
		// data layer's version query performs the recovery discovery.
		s, err := newSession(p, cfg, prog, nil)
		if err != nil {
			return err
		}
		s.noteStart()
		return app(s)
	}

	var held *Session // survives Fenix re-entries for survivors
	fcfg := fenix.Config{
		Spares:             cfg.Spares,
		ShrinkOnExhaustion: cfg.ShrinkOnExhaustion,
		RehostReserve:      cfg.RehostReserve,
	}
	return fenix.Run(p, fcfg, func(fctx *fenix.Context) error {
		s, err := sessionForEntry(held, fctx, cfg, prog)
		if err != nil {
			return err
		}
		held = s
		s.noteStart()
		return app(s)
	})
}

// sessionForEntry builds or refreshes the session on each entry into the
// Fenix-protected body, implementing the role dispatch of Figure 4:
// initial ranks create contexts, survivors reset them against the repaired
// communicator, and recovered ranks (substituted spares) create fresh ones.
func sessionForEntry(held *Session, fctx *fenix.Context, cfg *Config, prog *progress) (*Session, error) {
	p := fctx.Proc()
	if held != nil && fctx.Role() == fenix.RoleSurvivor {
		// Survivor: memory (and Store) intact; re-point everything at the
		// repaired communicator per the paper's ctx.reset(res_comm).
		held.comm = fctx.Comm()
		held.role = fenix.RoleSurvivor
		held.fctx = fctx
		switch {
		case held.krctx != nil:
			if err := held.krctx.Reset(fctx.Comm()); err != nil {
				return nil, err
			}
			if cfg.Strategy.Layers().Rollback == RollbackLocalized {
				if held.krctx.RecoveryPending() {
					held.collInstallPending = p.MsgLogActive()
				} else {
					// No committed checkpoint survives the failure: every
					// rank rebuilds from scratch and re-executes live, so
					// the aborted epoch's log is garbage everywhere.
					held.collInstallPending = false
					held.liveIter = -1
					held.shadow, held.shadowIter = nil, -1
					p.MsgLogResetOnce(fctx.Generation())
				}
			}
		case held.manual != nil:
			held.manual.client.SetComm(fctx.Comm())
			held.manual.client.SetRank(fctx.Rank())
			if err := held.manual.resync(fctx.Comm()); err != nil {
				return nil, err
			}
		}
		return held, nil
	}
	// Initial entry or a recovered replacement: build everything fresh.
	return newSession(p, cfg, prog, fctx)
}

// newSession builds a rank's session from its strategy's layer row: on a
// plain launch or relaunch (fctx nil), on a Fenix initial entry, and for a
// recovered replacement. The data layer comes first, then the control
// flow that drives it.
func newSession(p *mpi.Proc, cfg *Config, prog *progress, fctx *fenix.Context) (*Session, error) {
	layers := cfg.Strategy.Layers()
	s := &Session{
		p: p, cfg: cfg, prog: prog,
		comm: p.World().CommWorld(), role: fenix.RoleInitial, fctx: fctx,
		Store: make(map[string]any), liveIter: -1, shadowIter: -1,
	}
	if fctx != nil {
		s.comm, s.role = fctx.Comm(), fctx.Role()
	}

	var client *veloc.Client
	var backend kr.Backend
	switch layers.Data {
	case DataVeloC:
		vcfg := veloc.Config{Mode: veloc.Collective, Comm: s.comm, Verify: cfg.SDC.Policy != kokkos.SDCNone}
		if fctx != nil {
			// Under Fenix each rank writes alone, named by its logical rank
			// so a replacement finds its predecessor's checkpoints.
			vcfg.Mode, vcfg.Rank, vcfg.RankSet = veloc.Single, fctx.Rank(), true
		}
		var err error
		if client, err = veloc.New(p, vcfg); err != nil {
			return nil, err
		}
		backend = kr.NewVeloCBackend(client, cfg.CheckpointName)
	case DataIMR:
		im, err := fenix.NewIMR(fctx, cfg.CheckpointName)
		if err != nil {
			return nil, err
		}
		backend = kr.NewIMRBackend(im)
	}

	switch layers.Control {
	case ControlManual:
		s.manual = &manualCtx{client: client, name: cfg.CheckpointName, interval: cfg.CheckpointInterval, latest: -1}
		return s, s.manual.resync(s.comm)
	case ControlKR:
		krCfg := kr.Config{Interval: cfg.CheckpointInterval, RestoreSurvivors: true}
		if layers.Rollback == RollbackPartial || layers.Rollback == RollbackLocalized {
			krCfg.RestoreSurvivors = false
			krCfg.Recovered = func() bool { return fctx.Role() == fenix.RoleRecovered }
			krCfg.Localized = layers.Rollback == RollbackLocalized
		}
		ctx, err := kr.MakeContext(p, s.comm, backend, krCfg)
		if err != nil {
			return nil, err
		}
		s.krctx = ctx
	}

	if layers.Rollback == RollbackLocalized && s.role == fenix.RoleRecovered {
		if s.krctx.RecoveryPending() {
			// The replacement's replay clock starts at re-entry; it
			// stops when forward re-execution crosses the log frontier.
			s.replayStarted, s.replayStart = true, p.Now()
		} else {
			// Predecessor died before any commit: full re-execution
			// from scratch for everyone; drop the aborted epoch's log.
			p.MsgLogResetOnce(fctx.Generation())
		}
	}
	return s, nil
}
