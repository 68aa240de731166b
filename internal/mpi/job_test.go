package mpi

import (
	"errors"
	"testing"

	"repro/internal/trace"
)

func TestRunJobCleanRun(t *testing.T) {
	cfg := JobConfig{Ranks: 4, Machine: quietMachine(), Seed: 1}
	res := RunJob(cfg, func(p *Proc) error {
		p.ComputeExact(1e9)
		return p.World().CommWorld().Barrier(p)
	})
	if res.Failed || res.Err() != nil {
		t.Fatalf("clean run failed: %v", res.Err())
	}
	if res.Launches != 1 {
		t.Fatalf("Launches = %d", res.Launches)
	}
	// Wall time includes launch overhead plus ~0.5s compute.
	minWall := cfg.Machine.LaunchTime(4) + 0.5
	if res.WallTime < minWall {
		t.Fatalf("WallTime = %v, want >= %v", res.WallTime, minWall)
	}
	if res.PerRank[0].Get(trace.AppCompute) <= 0 {
		t.Fatal("no compute time recorded")
	}
}

func TestRunJobNodesComputation(t *testing.T) {
	cfg := JobConfig{Ranks: 10, RanksPerNode: 4}
	if got := cfg.Nodes(); got != 3 {
		t.Fatalf("Nodes() = %d, want 3", got)
	}
}

func TestRunJobFailRestartRelaunches(t *testing.T) {
	// Rank 1 dies on the first launch only; the relaunch completes. The
	// "already failed" marker lives in PFS state, mimicking a checkpoint.
	cfg := JobConfig{Ranks: 2, Machine: quietMachine(), FailRestart: true, MaxRestarts: 2, Seed: 1}
	res := RunJob(cfg, func(p *Proc) error {
		c := p.World().CommWorld()
		if err := c.Barrier(p); err != nil {
			return err
		}
		pfs := p.World().Cluster().PFS()
		if _, ok := pfs.Exists("attempt-marker"); !ok {
			if p.Rank() == 1 {
				pfs.Write("attempt-marker", []byte{1}, p.Now())
				p.Exit()
			}
			// Rank 0 continues; its next MPI op aborts the job.
			err := c.Barrier(p)
			return err
		}
		return c.Barrier(p)
	})
	if res.Failed {
		t.Fatalf("job failed: %v", res.RankErrs)
	}
	if res.Launches != 2 {
		t.Fatalf("Launches = %d, want 2", res.Launches)
	}
	for _, e := range res.RankErrs {
		if e != nil {
			t.Fatalf("final launch error: %v", e)
		}
	}
}

func TestRunJobFailRestartExhaustsRestarts(t *testing.T) {
	cfg := JobConfig{Ranks: 2, Machine: quietMachine(), FailRestart: true, MaxRestarts: 1, Seed: 1}
	launches := 0
	res := RunJob(cfg, func(p *Proc) error {
		if p.Rank() == 0 {
			launches++
			p.Exit()
		}
		return p.World().CommWorld().Barrier(p)
	})
	if !res.Failed {
		t.Fatal("job should have failed after exhausting restarts")
	}
	if res.Launches != 2 {
		t.Fatalf("Launches = %d, want 2", res.Launches)
	}
}

func TestRunJobULFMFailureSurfacesAsError(t *testing.T) {
	// Without Fenix, a ULFM-mode job whose survivor returns the failure
	// error counts as failed.
	cfg := JobConfig{Ranks: 2, Machine: quietMachine(), Seed: 1}
	res := RunJob(cfg, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Exit()
		}
		return p.World().CommWorld().Barrier(p)
	})
	if !res.Failed {
		t.Fatal("unhandled ULFM failure should fail the job")
	}
	if !IsProcessFailure(res.Err()) {
		t.Fatalf("Err() = %v", res.Err())
	}
}

func TestRunJobULFMHandledFailureSucceeds(t *testing.T) {
	// A survivor that handles the error (Fenix-style) ends the job cleanly.
	cfg := JobConfig{Ranks: 2, Machine: quietMachine(), Seed: 1}
	res := RunJob(cfg, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Exit()
		}
		if err := p.World().CommWorld().Barrier(p); !IsProcessFailure(err) {
			return errors.New("expected failure")
		}
		return nil // handled
	})
	if res.Failed {
		t.Fatalf("handled failure marked job failed: %v", res.RankErrs)
	}
	if res.Launches != 1 {
		t.Fatalf("Launches = %d", res.Launches)
	}
}

func TestRunJobRelaunchCostsAppearInWallTime(t *testing.T) {
	m := quietMachine()
	clean := RunJob(JobConfig{Ranks: 2, Machine: m, Seed: 1}, func(p *Proc) error {
		return nil
	})
	withRestart := RunJob(JobConfig{Ranks: 2, Machine: m, FailRestart: true, MaxRestarts: 1, Seed: 1},
		func(p *Proc) error {
			pfs := p.World().Cluster().PFS()
			if _, ok := pfs.Exists("m"); !ok {
				if p.Rank() == 0 {
					pfs.Write("m", []byte{1}, p.Now())
					p.Exit()
				}
				return p.World().CommWorld().Barrier(p)
			}
			return nil
		})
	// The restarted job must pay at least one extra launch + teardown.
	minExtra := m.LaunchTime(2) + m.TeardownTime(2)
	if withRestart.WallTime < clean.WallTime+minExtra*0.9 {
		t.Fatalf("relaunch overhead missing: clean=%v restart=%v", clean.WallTime, withRestart.WallTime)
	}
}

func TestRunJobDeterministic(t *testing.T) {
	run := func() float64 {
		res := RunJob(JobConfig{Ranks: 4, Seed: 42}, func(p *Proc) error {
			p.Compute(1e8)
			_, err := p.World().CommWorld().AllreduceInt(p, p.Rank(), OpSum)
			return err
		})
		return res.WallTime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different wall times: %v vs %v", a, b)
	}
}

func TestRunJobSeedChangesJitter(t *testing.T) {
	run := func(seed uint64) float64 {
		res := RunJob(JobConfig{Ranks: 2, Seed: seed}, func(p *Proc) error {
			p.Compute(1e9)
			return nil
		})
		return res.WallTime
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical jitter (suspicious)")
	}
}

func TestRunJobPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("programmer panic was swallowed")
		}
	}()
	RunJob(JobConfig{Ranks: 1, Seed: 1}, func(p *Proc) error {
		panic("bug in app")
	})
}
