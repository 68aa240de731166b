package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RankFunc is the body of one MPI process, the analogue of main() in an
// MPI program. It is invoked once per rank per launch.
type RankFunc func(p *Proc) error

// JobConfig describes one simulated `mpirun` invocation.
type JobConfig struct {
	// Ranks is the number of MPI processes.
	Ranks int
	// RanksPerNode controls placement; defaults to 1 (the paper's Heatdis
	// configuration runs one rank per node).
	RanksPerNode int
	// Machine is the cost model; defaults to sim.DefaultMachine.
	Machine *sim.Machine
	// Cluster, if non-nil, is reused (and persists scratch/PFS state);
	// otherwise a cluster just large enough for the job is created.
	Cluster *cluster.Cluster
	// FailRestart selects classic checkpoint/restart semantics: any process
	// failure aborts the job, which is then relaunched up to MaxRestarts
	// times. When false, failures surface as ULFM errors for Fenix.
	FailRestart bool
	// MaxRestarts bounds relaunches under FailRestart.
	MaxRestarts int
	// Seed makes per-rank compute jitter deterministic.
	Seed uint64
	// Obs, if non-nil, receives structured observability events and
	// metrics from every layer of every launch (see internal/obs). Nil
	// disables recording at near-zero cost.
	Obs *obs.Recorder
	// Inject, if non-nil, receives control at named execution points in
	// every launch (see Injector); the chaos engine uses it to kill ranks
	// at adversarial moments. Nil disables injection at near-zero cost.
	Inject Injector
	// Flush configures the per-node checkpoint flush scheduler
	// (cluster.FlushPolicy). The zero value keeps the unscheduled
	// start-immediately behaviour; a positive Window bounds in-flight
	// flushes per node, with optional coalescing of superseded versions.
	Flush cluster.FlushPolicy
	// MsgLog enables the sender-based message log (msglog.go) on every
	// launch's world, the capture side of localized recovery. The process
	// resilience layer registers its lineage communicators with it.
	MsgLog bool
}

func (cfg *JobConfig) normalize() {
	if cfg.Ranks <= 0 {
		panic("mpi: JobConfig.Ranks must be positive")
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 1
	}
	if cfg.Machine == nil {
		cfg.Machine = sim.DefaultMachine()
	}
}

// Nodes returns the number of nodes the job occupies.
func (cfg JobConfig) Nodes() int {
	cfg.normalize()
	n := (cfg.Ranks + cfg.RanksPerNode - 1) / cfg.RanksPerNode
	return n
}

// JobResult is the outcome of a job: wall time as the paper's `time mpirun`
// would report it (including launch, teardown, and relaunch overheads),
// per-rank category times summed across launches, and final errors.
type JobResult struct {
	// WallTime is the virtual end-to-end job duration in seconds.
	WallTime float64
	// Launches counts job launches (1 for a failure-free run).
	Launches int
	// PerRank holds each rank's category times summed across launches.
	PerRank []trace.Times
	// Failed reports whether the job ultimately ended in an unrecovered
	// failure.
	Failed bool
	// RankErrs holds the per-rank errors from the final launch.
	RankErrs []error
	// Cluster is the cluster the job ran on (exposes PFS/scratch state for
	// inspection by tests and the harness).
	Cluster *cluster.Cluster
}

// Err returns the first non-nil rank error, if any.
func (r *JobResult) Err() error {
	for _, e := range r.RankErrs {
		if e != nil {
			return e
		}
	}
	if r.Failed {
		return errors.New("mpi: job failed")
	}
	return nil
}

// rankOutcome classifies how one rank goroutine ended.
type rankOutcome struct {
	err      error
	killed   bool
	aborted  bool
	panicked any // programmer panic, re-raised on the caller's goroutine
}

// RunJob launches the job and runs f as every rank's body, relaunching
// under FailRestart semantics when a failure occurs. It blocks until the
// job completes and returns the aggregated result.
func RunJob(cfg JobConfig, f RankFunc) *JobResult {
	cfg.normalize()
	nodes := cfg.Nodes()
	cl := cfg.Cluster
	if cl == nil {
		cl = cluster.New(nodes, cfg.Machine)
	}
	cl.SetFlushPolicy(cfg.Flush)

	res := &JobResult{
		PerRank: make([]trace.Times, cfg.Ranks),
		Cluster: cl,
	}
	jobTime := 0.0

	for attempt := 0; ; attempt++ {
		start := jobTime + cfg.Machine.LaunchTime(nodes)
		w := NewWorld(cl, cfg.Ranks, cfg.RanksPerNode, cfg.FailRestart, cfg.Seed+uint64(attempt)*1e9, start)
		w.SetObs(cfg.Obs)
		w.SetInjector(cfg.Inject)
		if cfg.MsgLog {
			w.EnableMsgLog()
		}
		res.Launches++
		cfg.Obs.Emit(start, -1, obs.LayerMPI, obs.EvJobLaunch,
			obs.KV("attempt", attempt), obs.KV("ranks", cfg.Ranks), obs.KV("nodes", nodes))
		cfg.Obs.Registry().Counter(obs.MJobLaunches).Inc()

		outcomes := runRanks(w, f)
		for _, o := range outcomes {
			if o.panicked != nil {
				panic(o.panicked)
			}
		}

		anyKilled, anyAborted := false, false
		res.RankErrs = make([]error, cfg.Ranks)
		endTime := start
		for i, o := range outcomes {
			res.PerRank[i] = res.PerRank[i].Add(w.procs[i].rec.Snapshot())
			res.RankErrs[i] = o.err
			anyKilled = anyKilled || o.killed
			anyAborted = anyAborted || o.aborted
			if t := w.procs[i].clock.Now(); t > endTime {
				endTime = t
			}
		}
		jobTime = endTime

		// Finalize barrier for the flush scheduler (VELOC_Finalize waits out
		// async flushes): commit every still-queued flush so its events and
		// metrics land in the log deterministically. Rank clocks are final;
		// draining does not extend the job's wall time, matching the
		// unscheduled model where flush windows may outlive the job.
		cl.AdvanceFlushes(math.Inf(1))

		emitEnd := func() {
			cfg.Obs.Emit(res.WallTime, -1, obs.LayerMPI, obs.EvJobEnd,
				obs.KV("launches", res.Launches), obs.KV("failed", res.Failed),
				obs.KV("wall_seconds", res.WallTime))
		}
		failed := anyKilled || anyAborted
		if !failed {
			res.WallTime = jobTime
			emitEnd()
			return res
		}
		if !cfg.FailRestart {
			// ULFM semantics: a killed rank alone does not fail the job —
			// if the surviving ranks completed cleanly, Fenix recovered it.
			for _, o := range outcomes {
				if o.err != nil || o.aborted {
					res.Failed = true
				}
			}
			res.WallTime = jobTime
			emitEnd()
			return res
		}
		if attempt >= cfg.MaxRestarts {
			res.Failed = true
			res.WallTime = jobTime
			emitEnd()
			return res
		}
		// Fail-restart: tear down and relaunch. Node scratch and PFS state
		// persist (same allocation), as with VeloC restarting in place.
		jobTime += cfg.Machine.TeardownTime(nodes)
	}
}

// runRanks executes one launch: a goroutine per rank, recovering the
// processKilled/jobAborted unwinds used for failure simulation.
func runRanks(w *World, f RankFunc) []rankOutcome {
	outcomes := make([]rankOutcome, len(w.procs))
	var wg sync.WaitGroup
	for i := range w.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				switch v := r.(type) {
				case processKilled:
					outcomes[p.rank].killed = true
				case jobAborted:
					outcomes[p.rank].aborted = true
					outcomes[p.rank].err = v.cause
					// The aborting runtime kills this process too, so
					// peers blocked on it are released.
					w.markDead(p.rank)
				default:
					// A programmer error: record it for re-raising on the
					// caller's goroutine, and mark this rank dead so peers
					// blocked on it are released rather than deadlocking.
					outcomes[p.rank].panicked = fmt.Sprintf("mpi: rank %d panicked: %v", p.rank, r)
					w.markDead(p.rank)
				}
			}()
			outcomes[p.rank].err = f(p)
		}(w.procs[i])
	}
	wg.Wait()
	return outcomes
}
