package fenix

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

func quietMachine() *sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseAmplitude = 0
	return m
}

func newWorld(n int) *mpi.World {
	cl := cluster.New(n, quietMachine())
	return mpi.NewWorld(cl, n, 1, false, 1, 0)
}

// runFenix runs body under Fenix on every rank of a fresh n-rank world and
// returns per-world-rank errors from Run.
func runFenix(n int, cfg Config, body Body) ([]error, *mpi.World) {
	w := newWorld(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(p *mpi.Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(interface{ killed() }); ok {
						return
					}
					// mpi.processKilled is unexported; swallow any unwind
					// from Exit, re-panic everything else by type name.
					if fmt.Sprintf("%T", r) != "mpi.processKilled" {
						panic(r)
					}
				}
			}()
			errs[p.Rank()] = Run(p, cfg, body)
		}(w.Proc(i))
	}
	wg.Wait()
	return errs, w
}

func checkNoErrs(t *testing.T, errs []error, skip ...int) {
	t.Helper()
	for i, e := range errs {
		skipped := false
		for _, s := range skip {
			if s == i {
				skipped = true
			}
		}
		if !skipped && e != nil {
			t.Fatalf("rank %d: %v", i, e)
		}
	}
}

func TestFailureFreeRun(t *testing.T) {
	var mu sync.Mutex
	roles := map[int]Role{}
	errs, _ := runFenix(4, Config{Spares: 1}, func(ctx *Context) error {
		mu.Lock()
		roles[ctx.Rank()] = ctx.Role()
		mu.Unlock()
		if ctx.Size() != 3 {
			t.Errorf("resilient comm size = %d, want 3", ctx.Size())
		}
		_, err := ctx.Comm().AllreduceInt(ctx.p, 1, mpi.OpSum)
		return err
	})
	checkNoErrs(t, errs)
	if len(roles) != 3 {
		t.Fatalf("%d ranks entered the body, want 3 (spare must stay blocked)", len(roles))
	}
	for r, role := range roles {
		if role != RoleInitial {
			t.Fatalf("rank %d role %v", r, role)
		}
	}
}

func TestInitChargesResilienceInit(t *testing.T) {
	errs, w := runFenix(3, Config{Spares: 1}, func(ctx *Context) error { return nil })
	checkNoErrs(t, errs)
	if w.Proc(0).Recorder().Get(trace.ResilienceInit) <= 0 {
		t.Fatal("Fenix init cost not recorded")
	}
}

func TestSingleFailureRecovery(t *testing.T) {
	var mu sync.Mutex
	entries := []string{}
	record := func(ctx *Context, what string) {
		mu.Lock()
		entries = append(entries, fmt.Sprintf("w%d/l%d:%s", ctx.p.Rank(), ctx.Rank(), what))
		mu.Unlock()
	}
	errs, w := runFenix(4, Config{Spares: 1}, func(ctx *Context) error {
		record(ctx, ctx.Role().String())
		if ctx.Role() == RoleInitial && ctx.p.Rank() == 1 {
			ctx.p.Exit()
		}
		// Everyone else hits the failure through a collective.
		_, err := ctx.Comm().AllreduceInt(ctx.p, 1, mpi.OpSum)
		if err != nil {
			return err
		}
		return nil
	})
	checkNoErrs(t, errs)

	mu.Lock()
	defer mu.Unlock()
	want := map[string]bool{
		"w0/l0:initial": true, "w1/l1:initial": true, "w2/l2:initial": true,
		"w0/l0:survivor": true, "w2/l2:survivor": true,
		"w3/l1:recovered": true, // spare (world 3) adopted logical rank 1
	}
	if len(entries) != len(want) {
		t.Fatalf("entries %v", entries)
	}
	for _, e := range entries {
		if !want[e] {
			t.Fatalf("unexpected entry %q in %v", e, entries)
		}
	}
	if got := w.Proc(3).Recorder().Get(trace.ResilienceInit); got <= 0 {
		t.Fatal("activated spare has no repair cost recorded")
	}
}

func TestRepairedCommPreservesSizeAndUsable(t *testing.T) {
	errs, _ := runFenix(4, Config{Spares: 1}, func(ctx *Context) error {
		if ctx.Role() == RoleInitial && ctx.p.Rank() == 0 {
			ctx.p.Exit()
		}
		sum, err := ctx.Comm().AllreduceInt(ctx.p, ctx.Rank(), mpi.OpSum)
		if err != nil {
			if !mpi.IsULFMError(err) {
				t.Errorf("unexpected err %v", err)
			}
			return err // jump to Fenix
		}
		if ctx.Size() != 3 {
			t.Errorf("size after repair = %d", ctx.Size())
		}
		if sum != 3 { // 0+1+2: logical ranks preserved
			t.Errorf("logical rank sum = %d, want 3", sum)
		}
		return nil
	})
	checkNoErrs(t, errs)
}

func TestCheckPanicsIntoRecovery(t *testing.T) {
	// Application code using ctx.Check never sees the error; Fenix
	// re-enters the body, exactly like the longjmp in C Fenix.
	reentries := make([]int, 4)
	var mu sync.Mutex
	errs, _ := runFenix(4, Config{Spares: 1}, func(ctx *Context) error {
		mu.Lock()
		reentries[ctx.p.Rank()]++
		mu.Unlock()
		if ctx.Role() == RoleInitial && ctx.p.Rank() == 2 {
			ctx.p.Exit()
		}
		_, err := ctx.Comm().AllreduceInt(ctx.p, 1, mpi.OpSum)
		ctx.Check(err) // panics on ULFM error; recovered by Run
		return nil
	})
	checkNoErrs(t, errs)
	mu.Lock()
	defer mu.Unlock()
	if reentries[0] != 2 || reentries[1] != 2 {
		t.Fatalf("survivors re-entered %v times, want 2", reentries[:2])
	}
	if reentries[3] != 1 {
		t.Fatalf("spare entered %d times, want 1", reentries[3])
	}
}

func TestCheckPassesThroughAppErrors(t *testing.T) {
	appErr := errors.New("numerical blowup")
	errs, _ := runFenix(2, Config{Spares: 0}, func(ctx *Context) error {
		if err := ctx.Check(appErr); err != nil {
			return err
		}
		return nil
	})
	for _, e := range errs {
		if !errors.Is(e, appErr) {
			t.Fatalf("err = %v", e)
		}
	}
}

func TestTwoSequentialFailures(t *testing.T) {
	errs, _ := runFenix(6, Config{Spares: 2}, func(ctx *Context) error {
		if ctx.Role() == RoleInitial && ctx.p.Rank() == 1 && ctx.Generation() == 0 {
			ctx.p.Exit()
		}
		if _, err := ctx.Comm().AllreduceInt(ctx.p, 1, mpi.OpSum); err != nil {
			return err
		}
		// Second failure: the survivor world rank 2 dies in generation 1.
		if ctx.Generation() == 1 && ctx.p.Rank() == 2 {
			ctx.p.Exit()
		}
		if _, err := ctx.Comm().AllreduceInt(ctx.p, 1, mpi.OpSum); err != nil {
			return err
		}
		if ctx.Size() != 4 {
			t.Errorf("final size %d", ctx.Size())
		}
		return nil
	})
	checkNoErrs(t, errs)
}

func TestOutOfSparesFailsJob(t *testing.T) {
	errs, _ := runFenix(2, Config{Spares: 0}, func(ctx *Context) error {
		if ctx.Role() == RoleInitial && ctx.p.Rank() == 0 {
			ctx.p.Exit()
		}
		if _, err := ctx.Comm().AllreduceInt(ctx.p, 1, mpi.OpSum); err != nil {
			return err
		}
		return nil
	})
	if !errors.Is(errs[1], ErrOutOfSpares) {
		t.Fatalf("rank 1 err = %v, want ErrOutOfSpares", errs[1])
	}
}

func TestShrinkOnExhaustion(t *testing.T) {
	errs, _ := runFenix(3, Config{Spares: 0, ShrinkOnExhaustion: true}, func(ctx *Context) error {
		if ctx.Role() == RoleInitial && ctx.p.Rank() == 1 {
			ctx.p.Exit()
		}
		if _, err := ctx.Comm().AllreduceInt(ctx.p, 1, mpi.OpSum); err != nil {
			return err
		}
		if ctx.Size() != 2 {
			t.Errorf("shrunk size = %d, want 2", ctx.Size())
		}
		return nil
	})
	checkNoErrs(t, errs, 1)
}

func TestInvalidSpareCount(t *testing.T) {
	w := newWorld(2)
	err := Run(w.Proc(0), Config{Spares: 2}, func(ctx *Context) error { return nil })
	if err == nil {
		t.Fatal("Spares == world size accepted")
	}
}

func TestSpareCountDecreases(t *testing.T) {
	errs, w := runFenix(4, Config{Spares: 2}, func(ctx *Context) error {
		if ctx.Role() == RoleInitial && ctx.p.Rank() == 1 {
			ctx.p.Exit()
		}
		if _, err := ctx.Comm().AllreduceInt(ctx.p, 1, mpi.OpSum); err != nil {
			return err
		}
		return nil
	})
	checkNoErrs(t, errs)
	if got := SpareCount(w.Proc(0)); got != 1 {
		t.Fatalf("SpareCount = %d, want 1", got)
	}
}

func TestRolesString(t *testing.T) {
	if RoleInitial.String() != "initial" || RoleSurvivor.String() != "survivor" || RoleRecovered.String() != "recovered" {
		t.Fatal("role strings wrong")
	}
}

// --- IMR ---

func TestBuddyOfIsInvolution(t *testing.T) {
	for r := 0; r < 64; r++ {
		b := BuddyOf(r)
		if b == r {
			t.Fatalf("rank %d is its own buddy", r)
		}
		if BuddyOf(b) != r {
			t.Fatalf("buddy not an involution at %d", r)
		}
	}
}

func TestIMRRequiresEvenSize(t *testing.T) {
	errs, _ := runFenix(3, Config{Spares: 0}, func(ctx *Context) error {
		_, err := NewIMR(ctx, "x")
		if err == nil {
			t.Error("odd-size IMR accepted")
		}
		return nil
	})
	checkNoErrs(t, errs)
}

func TestIMRCheckpointRestoreSurvivors(t *testing.T) {
	errs, w := runFenix(4, Config{Spares: 0}, func(ctx *Context) error {
		im, err := NewIMR(ctx, "x")
		if err != nil {
			return err
		}
		blob := []byte(fmt.Sprintf("data-of-%d", ctx.Rank()))
		if err := im.Checkpoint(3, blob); err != nil {
			return err
		}
		v, err := im.LatestCommon()
		if err != nil {
			return err
		}
		if v != 3 {
			t.Errorf("latest = %d", v)
		}
		got, err := im.Restore(3)
		if err != nil {
			return err
		}
		if string(got) != string(blob) {
			t.Errorf("restore = %q", got)
		}
		return nil
	})
	checkNoErrs(t, errs)
	if w.Proc(0).Recorder().Get(trace.CheckpointFunc) <= 0 {
		t.Fatal("IMR checkpoint cost not in CheckpointFunc")
	}
	if w.Proc(0).Recorder().Get(trace.DataRecovery) <= 0 {
		t.Fatal("IMR restore cost not in DataRecovery")
	}
	if w.Proc(0).Recorder().Get(trace.AppMPI) > 1e-4 {
		t.Fatalf("IMR left %v in AppMPI; exchange should be reattributed",
			w.Proc(0).Recorder().Get(trace.AppMPI))
	}
}

func TestIMRRecoveredRankRestoresFromBuddy(t *testing.T) {
	errs, _ := runFenix(5, Config{Spares: 1}, func(ctx *Context) error {
		im, err := NewIMR(ctx, "x")
		if err != nil {
			return err
		}
		blob := []byte(fmt.Sprintf("payload-%d", ctx.Rank()))
		if ctx.Role() == RoleInitial {
			if err := im.Checkpoint(1, blob); err != nil {
				return ctx.Check(err)
			}
			if ctx.p.Rank() == 2 {
				ctx.p.Exit()
			}
		}
		if err := ctx.Check(ctx.Comm().Barrier(ctx.p)); err != nil {
			return err
		}
		v, err := im.LatestCommon()
		if err = ctx.Check(err); err != nil {
			return err
		}
		got, err := im.Restore(v)
		if err = ctx.Check(err); err != nil {
			return err
		}
		want := fmt.Sprintf("payload-%d", ctx.Rank())
		if string(got) != want {
			t.Errorf("world %d logical %d restored %q, want %q", ctx.p.Rank(), ctx.Rank(), got, want)
		}
		return nil
	})
	checkNoErrs(t, errs)
}

func TestIMRVersionGC(t *testing.T) {
	errs, _ := runFenix(2, Config{Spares: 0}, func(ctx *Context) error {
		im, err := NewIMR(ctx, "x")
		if err != nil {
			return err
		}
		for v := 1; v <= 5; v++ {
			if err := im.Checkpoint(v, []byte{byte(v)}); err != nil {
				return err
			}
		}
		// Old versions are collected (keep = 2): restoring v=1 must fail.
		if _, err := im.Restore(1); err == nil {
			t.Error("restore of GC'd version succeeded")
		}
		if _, err := im.Restore(5); err != nil {
			t.Errorf("restore of latest failed: %v", err)
		}
		return nil
	})
	checkNoErrs(t, errs)
}
