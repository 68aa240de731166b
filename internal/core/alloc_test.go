package core

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/kokkos"
	"repro/internal/kr"
	"repro/internal/mpi"
	"repro/internal/veloc"
)

// allocBytes returns the heap bytes f allocates. TotalAlloc is
// process-wide, so a goroutine left over from an earlier test can add a
// few bytes to one call: each budget below takes the least of three
// calls of the same steady-state step.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointAllocBudget pins the allocation budget of the checkpoint
// byte path on a 1 MiB view, in bytes rather than wall time: a KR
// checkpoint through VeloC allocates only the frame scratch keeps (KR
// encodes into its reused buffer), a scratch restore reads the stored
// blob in place, and the localized boundary image reuses its buffers.
func TestCheckpointAllocBudget(t *testing.T) {
	const viewBytes = 1 << 20
	const calls = 3
	w := mpi.NewWorld(cluster.New(1, quietMachine()), 1, 1, false, 1, 0)
	p := w.Proc(0)
	comm := w.CommWorld()
	x := kokkos.NewF64("x", viewBytes/8)
	views := []kokkos.View{x}

	client, err := veloc.New(p, veloc.Config{Mode: veloc.Single, Rank: 0, RankSet: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := kr.MakeContext(p, comm, kr.NewVeloCBackend(client, "budget"), kr.Config{Interval: 1, RestoreSurvivors: true})
	if err != nil {
		t.Fatal(err)
	}
	body := func() error { x.Set(0, float64(ctx.LatestVersion()+1)); return nil }
	checkpoint := func(iter int) {
		if err := ctx.Checkpoint("loop", iter, views, body); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(0)
	checkpoint(1)

	t.Run("checkpoint", func(t *testing.T) {
		least := ^uint64(0)
		for iter := 2; iter < 2+calls; iter++ {
			least = min(least, allocBytes(func() { checkpoint(iter) }))
		}
		if limit := uint64(11 * viewBytes / 10); least > limit {
			t.Errorf("KR->VeloC checkpoint allocated %d bytes, budget %d (1.1x the view)", least, limit)
		}
	})

	t.Run("scratch-restore", func(t *testing.T) {
		latest := ctx.LatestVersion()
		least := ^uint64(0)
		for i := 0; i < calls; i++ {
			if err := ctx.Reset(comm); err != nil {
				t.Fatal(err)
			}
			if !ctx.RecoveryPending() || ctx.LatestVersion() != latest {
				t.Fatalf("recovery pending=%v latest=%d, want version %d armed", ctx.RecoveryPending(), ctx.LatestVersion(), latest)
			}
			x.Set(0, -1)
			least = min(least, allocBytes(func() { checkpoint(latest) }))
			if x.At(0) != float64(latest) {
				t.Fatalf("restored x[0] = %v, want %d", x.At(0), latest)
			}
		}
		if limit := uint64(viewBytes/10 + 16<<10); least > limit {
			t.Errorf("scratch restore allocated %d bytes, budget %d (0.1x the view + 16 KiB)", least, limit)
		}
	})

	t.Run("localized-shadow", func(t *testing.T) {
		w.EnableMsgLog()
		s := &Session{p: p, cfg: &Config{Strategy: StrategyLocalized}, krctx: ctx, shadowIter: -1}
		if !s.localizedActive() {
			t.Fatal("session is not under localized recovery")
		}
		shadow := func(iter int) {
			if err := s.boundaryShadow(iter, views); err != nil {
				t.Fatal(err)
			}
		}
		shadow(0)
		least := ^uint64(0)
		for iter := 1; iter <= calls; iter++ {
			least = min(least, allocBytes(func() { shadow(iter) }))
		}
		if least != 0 {
			t.Errorf("steady-state boundary image allocated %d bytes, want 0", least)
		}
	})
}

// TestRegionSnapshotAllocBudget checks that a session keeps each
// resilient region's snapshot copies from one call to the next: once
// warm, a replay or vote region over a 1 MiB view allocates no copy of
// the view (it took one to three per call when every run cloned).
func TestRegionSnapshotAllocBudget(t *testing.T) {
	const viewBytes = 1 << 20
	w := mpi.NewWorld(cluster.New(1, quietMachine()), 1, 1, false, 1, 0)
	x := kokkos.NewF64("x", viewBytes/8)
	views := []kokkos.View{x}
	body := func() { x.Set(0, x.At(0)+1) }
	for _, pol := range []kokkos.SDCPolicy{kokkos.SDCReplay, kokkos.SDCVote} {
		t.Run(pol.String(), func(t *testing.T) {
			s := &Session{p: w.Proc(0), cfg: &Config{SDC: SDCConfig{Policy: pol}}}
			region := func() {
				if err := s.Region("step", views, body); err != nil {
					t.Fatal(err)
				}
			}
			region()
			least := ^uint64(0)
			for i := 0; i < 3; i++ {
				least = min(least, allocBytes(region))
			}
			if least > viewBytes/64 {
				t.Errorf("a warm %v region allocated %d bytes, budget %d (1/64 of the view)", pol, least, viewBytes/64)
			}
		})
	}
}
