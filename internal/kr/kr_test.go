package kr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/kokkos"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/veloc"
)

func quietMachine() *sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseAmplitude = 0
	return m
}

func runRanks(t *testing.T, n int, f func(p *mpi.Proc) error) *mpi.World {
	t.Helper()
	cl := cluster.New(n, quietMachine())
	w := mpi.NewWorld(cl, n, 1, false, 1, 0)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(p *mpi.Proc) {
			defer wg.Done()
			defer func() { recover() }()
			errs[p.Rank()] = f(p)
		}(w.Proc(i))
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", i, e)
		}
	}
	return w
}

// --- census ---

func TestCensusClassification(t *testing.T) {
	x := kokkos.NewF64("x", 100)        // checkpointed
	xDup := x.Ref("x_captured")         // skipped (same allocation)
	xOld := kokkos.NewF64("x_old", 100) // alias (declared)
	v := kokkos.NewF64("v", 50)         // checkpointed

	c := CensusOf([]kokkos.View{x, xDup, xOld, v}, map[string]bool{"x_old": true})
	ck, al, sk := c.Counts()
	if ck != 2 || al != 1 || sk != 1 {
		t.Fatalf("counts = %d/%d/%d", ck, al, sk)
	}
	ckB, alB, skB := c.Bytes()
	if ckB != 800+400 || alB != 800 || skB != 800 {
		t.Fatalf("bytes = %d/%d/%d", ckB, alB, skB)
	}
	if c.TotalViews() != 4 {
		t.Fatalf("total = %d views", c.TotalViews())
	}
	cv := c.CheckpointedViews()
	if len(cv) != 2 || cv[0].Label() != "x" || cv[1].Label() != "v" {
		t.Fatalf("checkpointed views wrong: %v", cv)
	}
}

func TestCensusDryViews(t *testing.T) {
	big := kokkos.NewF64Dry("big", 400, 400, 400)
	dup := big.Ref("big2")
	c := CensusOf([]kokkos.View{big, dup}, nil)
	ck, _, sk := c.Counts()
	if ck != 1 || sk != 1 {
		t.Fatalf("dry census counts %d/%d", ck, sk)
	}
	ckB, _, skB := c.Bytes()
	want := 8 * 400 * 400 * 400
	if ckB != want || skB != want {
		t.Fatalf("dry census bytes %d/%d", ckB, skB)
	}
}

func TestCensusEmptyAndClassString(t *testing.T) {
	c := CensusOf(nil, nil)
	if c.TotalViews() != 0 {
		t.Fatal("empty census not empty")
	}
	if Checkpointed.String() != "Checkpointed" || Alias.String() != "Alias" || Skipped.String() != "Skipped" {
		t.Fatal("class strings wrong")
	}
}

// --- serialization ---

func TestViewBlobRoundTrip(t *testing.T) {
	a := kokkos.NewF64("a", 4)
	b := kokkos.NewI32("b", 3)
	for i := 0; i < 4; i++ {
		a.Set(i, float64(i)*1.5)
	}
	for i := 0; i < 3; i++ {
		b.Set(i, int32(-i))
	}
	blob := serializeViews(nil, []kokkos.View{a, b})

	a2 := kokkos.NewF64("a", 4)
	b2 := kokkos.NewI32("b", 3)
	if err := deserializeViews(blob, []kokkos.View{a2, b2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if a2.At(i) != float64(i)*1.5 {
			t.Fatalf("a[%d] = %v", i, a2.At(i))
		}
	}
	for i := 0; i < 3; i++ {
		if b2.At(i) != int32(-i) {
			t.Fatalf("b[%d] = %v", i, b2.At(i))
		}
	}
}

func TestDeserializeUnknownView(t *testing.T) {
	a := kokkos.NewF64("a", 2)
	blob := serializeViews(nil, []kokkos.View{a})
	other := kokkos.NewF64("other", 2)
	if err := deserializeViews(blob, []kokkos.View{other}); err == nil {
		t.Fatal("unknown view accepted")
	}
}

func TestDeserializeTruncated(t *testing.T) {
	a := kokkos.NewF64("a", 2)
	blob := serializeViews(nil, []kokkos.View{a})
	for _, n := range []int{0, 3, 5, len(blob) - 1} {
		if err := deserializeViews(blob[:n], []kokkos.View{a}); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
}

// --- context over VeloC ---

func makeVeloCCtx(t *testing.T, p *mpi.Proc, comm *mpi.Comm, mode veloc.Mode, cfg Config) *Context {
	t.Helper()
	client, err := veloc.New(p, veloc.Config{Mode: mode, Comm: comm})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := MakeContext(p, comm, NewVeloCBackend(client, "test"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestCheckpointRegionExecutesBody(t *testing.T) {
	runRanks(t, 2, func(p *mpi.Proc) error {
		ctx := makeVeloCCtx(t, p, p.World().CommWorld(), veloc.Collective, Config{Interval: 2, RestoreSurvivors: true})
		if ctx.LatestVersion() != -1 {
			t.Errorf("fresh context latest = %d", ctx.LatestVersion())
		}
		x := kokkos.NewF64("x", 8)
		ran := 0
		for i := 0; i < 4; i++ {
			err := ctx.Checkpoint("loop", i, []kokkos.View{x}, func() error {
				ran++
				x.Set(0, float64(i))
				return nil
			})
			if err != nil {
				return err
			}
		}
		if ran != 4 {
			t.Errorf("body ran %d times", ran)
		}
		if ctx.LatestVersion() != 3 { // iterations 1 and 3 checkpoint (interval 2)
			t.Errorf("latest = %d", ctx.LatestVersion())
		}
		return nil
	})
}

func TestRecoveryRestoresAndSkipsBody(t *testing.T) {
	runRanks(t, 2, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		x := kokkos.NewF64("x", 8)

		ctx := makeVeloCCtx(t, p, comm, veloc.Collective, Config{Interval: 3, RestoreSurvivors: true})
		for i := 0; i < 6; i++ {
			if err := ctx.Checkpoint("loop", i, []kokkos.View{x}, func() error {
				x.Set(0, float64(i*10))
				return nil
			}); err != nil {
				return err
			}
		}
		// x now holds 50; checkpoints exist at iters 2 and 5 (value 20, 50).

		// Simulate a relaunch: fresh context discovers version 5 and the
		// loop resumes there; the body at iter 5 is skipped, data restored.
		x.Set(0, -1)
		ctx2 := makeVeloCCtx(t, p, comm, veloc.Collective, Config{Interval: 3, RestoreSurvivors: true})
		if !ctx2.RecoveryPending() || ctx2.LatestVersion() != 5 {
			t.Errorf("recovery state: pending=%v latest=%d", ctx2.RecoveryPending(), ctx2.LatestVersion())
		}
		ran := false
		if err := ctx2.Checkpoint("loop", 5, []kokkos.View{x}, func() error {
			ran = true
			return nil
		}); err != nil {
			return err
		}
		if ran {
			t.Error("body ran during recovery iteration")
		}
		if x.At(0) != 50 {
			t.Errorf("restored x = %v, want 50", x.At(0))
		}
		if ctx2.RecoveryPending() {
			t.Error("recovery still pending after restore")
		}
		return nil
	})
}

func TestPartialRollbackSkipsSurvivorRestore(t *testing.T) {
	runRanks(t, 2, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		x := kokkos.NewF64("x", 4)
		ctx := makeVeloCCtx(t, p, comm, veloc.Collective, Config{Interval: 1, RestoreSurvivors: true})
		if err := ctx.Checkpoint("loop", 0, []kokkos.View{x}, func() error {
			x.Set(0, 100)
			return nil
		}); err != nil {
			return err
		}
		x.Set(0, 999) // in-progress data beyond the checkpoint

		recovered := p.Rank() == 1
		ctx2 := makeVeloCCtx(t, p, comm, veloc.Collective, Config{
			Interval: 1, RestoreSurvivors: false,
			Recovered: func() bool { return recovered },
		})
		ran := false
		if err := ctx2.Checkpoint("loop", 0, []kokkos.View{x}, func() error { ran = true; return nil }); err != nil {
			return err
		}
		if !ran {
			t.Error("all ranks must run the body under partial rollback (collective alignment)")
		}
		if recovered {
			if x.At(0) != 100 {
				t.Errorf("recovered rank x = %v, want 100 (restored)", x.At(0))
			}
		} else if x.At(0) != 999 {
			t.Errorf("survivor x = %v, want 999 (kept)", x.At(0))
		}
		return nil
	})
}

func TestSingleModeUsesManualReduction(t *testing.T) {
	runRanks(t, 3, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		client, err := veloc.New(p, veloc.Config{Mode: veloc.Single, Rank: comm.Rank(p), RankSet: true})
		if err != nil {
			return err
		}
		backend := NewVeloCBackend(client, "t")
		x := kokkos.NewF64("x", 2)
		// Rank 2 checkpoints fewer versions.
		max := 4
		if p.Rank() == 2 {
			max = 2
		}
		for v := 0; v < max; v++ {
			blob := serializeViews(nil, []kokkos.View{x})
			if err := backend.Checkpoint(v, blob, len(blob)); err != nil {
				return err
			}
		}
		ctx, err := MakeContext(p, comm, backend, Config{Interval: 1, RestoreSurvivors: true})
		if err != nil {
			return err
		}
		if ctx.LatestVersion() != 1 {
			t.Errorf("rank %d latest = %d, want 1 (global min)", p.Rank(), ctx.LatestVersion())
		}
		return nil
	})
}

func TestResetClearsMetadataAndRefetches(t *testing.T) {
	runRanks(t, 2, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		client, err := veloc.New(p, veloc.Config{Mode: veloc.Single, Rank: comm.Rank(p), RankSet: true})
		if err != nil {
			return err
		}
		backend := NewVeloCBackend(client, "t")
		ctx, err := MakeContext(p, comm, backend, Config{Interval: 1, RestoreSurvivors: true})
		if err != nil {
			return err
		}
		x := kokkos.NewF64("x", 2)
		if err := ctx.Checkpoint("loop", 0, []kokkos.View{x}, func() error { return nil }); err != nil {
			return err
		}
		if ctx.LatestVersion() != 0 {
			t.Errorf("latest = %d", ctx.LatestVersion())
		}
		// Reset against the same comm (a repair would supply a new one):
		// metadata cache must be rebuilt from storage, recovery re-armed.
		if err := ctx.Reset(comm); err != nil {
			return err
		}
		if !ctx.RecoveryPending() || ctx.LatestVersion() != 0 {
			t.Errorf("after reset: pending=%v latest=%d", ctx.RecoveryPending(), ctx.LatestVersion())
		}
		return nil
	})
}

func TestDeclareAliasesExcludesFromBlob(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		ctx := makeVeloCCtx(t, p, p.World().CommWorld(), veloc.Collective, Config{Interval: 1, RestoreSurvivors: true})
		ctx.DeclareAliases("x", "x_swap")
		x := kokkos.NewF64("x", 4)
		xs := kokkos.NewF64("x_swap", 4)
		if err := ctx.Checkpoint("loop", 0, []kokkos.View{x, xs}, func() error { return nil }); err != nil {
			return err
		}
		_, al, _ := ctx.Census().Counts()
		if al != 1 {
			t.Errorf("alias count = %d", al)
		}
		if len(ctx.Census().CheckpointedViews()) != 1 {
			t.Errorf("checkpointed = %d views", len(ctx.Census().CheckpointedViews()))
		}
		return nil
	})
}

func TestBodyErrorPropagates(t *testing.T) {
	bodyErr := errors.New("body failed")
	runRanks(t, 1, func(p *mpi.Proc) error {
		ctx := makeVeloCCtx(t, p, p.World().CommWorld(), veloc.Collective, Config{Interval: 1, RestoreSurvivors: true})
		err := ctx.Checkpoint("loop", 0, nil, func() error { return bodyErr })
		if !errors.Is(err, bodyErr) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestConfigValidation(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		client, _ := veloc.New(p, veloc.Config{Mode: veloc.Single})
		_, err := MakeContext(p, p.World().CommWorld(), NewVeloCBackend(client, "x"),
			Config{RestoreSurvivors: true, Recovered: func() bool { return false }})
		if err == nil {
			t.Error("invalid config accepted")
		}
		return nil
	})
}

func TestShouldCheckpointIntervals(t *testing.T) {
	cfg := Config{Interval: 5}
	var got []int
	for i := 0; i < 20; i++ {
		if cfg.shouldCheckpoint(i) {
			got = append(got, i)
		}
	}
	want := []int{4, 9, 14, 19}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("checkpoint iters %v, want %v", got, want)
	}
	if (Config{}).shouldCheckpoint(0) {
		t.Fatal("zero interval should never checkpoint")
	}
}

func clusterOf(n int) *cluster.Cluster {
	return cluster.New(n, quietMachine())
}

func TestTwoIndependentContexts(t *testing.T) {
	// An application can manage two checkpoint sets (e.g. fields and
	// particles) with independent contexts, backends, and cadences.
	runRanks(t, 2, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		mk := func(name string, interval int) *Context {
			client, err := veloc.New(p, veloc.Config{Mode: veloc.Single, Rank: comm.Rank(p), RankSet: true})
			if err != nil {
				t.Fatal(err)
			}
			ctx, err := MakeContext(p, comm, NewVeloCBackend(client, name), Config{Interval: interval, RestoreSurvivors: true})
			if err != nil {
				t.Fatal(err)
			}
			return ctx
		}
		fields := mk("fields", 2)
		parts := mk("particles", 3)

		a := kokkos.NewF64("a", 2)
		b := kokkos.NewF64("b", 2)
		for i := 0; i < 6; i++ {
			if err := fields.Checkpoint("f", i, []kokkos.View{a}, func() error {
				a.Set(0, float64(i))
				return nil
			}); err != nil {
				return err
			}
			if err := parts.Checkpoint("p", i, []kokkos.View{b}, func() error {
				b.Set(0, float64(i*100))
				return nil
			}); err != nil {
				return err
			}
		}
		if fields.LatestVersion() != 5 { // interval 2 -> 1,3,5
			t.Errorf("fields latest = %d", fields.LatestVersion())
		}
		if parts.LatestVersion() != 5 { // interval 3 -> 2,5
			t.Errorf("particles latest = %d", parts.LatestVersion())
		}
		// Restore each independently.
		a.Set(0, -1)
		b.Set(0, -1)
		f2 := mk("fields", 2)
		if f2.LatestVersion() != 5 {
			t.Errorf("recovered fields latest = %d", f2.LatestVersion())
		}
		if err := f2.Checkpoint("f", 5, []kokkos.View{a}, func() error { return nil }); err != nil {
			return err
		}
		if a.At(0) != 5 {
			t.Errorf("fields restored a=%v", a.At(0))
		}
		if b.At(0) != -1 {
			t.Errorf("particles state touched by fields restore: b=%v", b.At(0))
		}
		return nil
	})
}

// TestRestoreAliasesScratchBlob covers the hazard of restoring in place:
// a restore leaves the backend holding a slice of the stored scratch blob,
// so nothing on the checkpoint path may write through it. Checkpoint v,
// restore it, mutate the views, checkpoint v+1, and restore v again: the
// views must read v's bytes, and v's scratch blob must still pass its CRC.
func TestRestoreAliasesScratchBlob(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		comm := p.World().CommWorld()
		client, err := veloc.New(p, veloc.Config{Mode: veloc.Single, Rank: 0, RankSet: true, Verify: true})
		if err != nil {
			return err
		}
		backend := NewVeloCBackend(client, "alias")
		ctx, err := MakeContext(p, comm, backend, Config{Interval: 1, RestoreSurvivors: true})
		if err != nil {
			return err
		}
		x := kokkos.NewF64("x", 64)
		y := kokkos.NewI32("y", 16)
		views := []kokkos.View{x, y}
		fill := func(base int) {
			for i := range x.Data() {
				x.Set(i, float64(base+i)/4)
			}
			for i := range y.Data() {
				y.Set(i, int32(base-i))
			}
		}
		noop := func() error { return nil }

		fill(10)
		if err := ctx.Checkpoint("loop", 0, views, noop); err != nil {
			return err
		}
		want := serializeViews(nil, views)
		fill(-1)
		if err := ctx.Reset(comm); err != nil {
			return err
		}
		if err := ctx.Checkpoint("loop", 0, views, noop); err != nil { // restores v0
			return err
		}
		fill(20)
		if err := ctx.Checkpoint("loop", 1, views, noop); err != nil {
			return err
		}
		fill(30)
		blob, err := backend.Restore(0)
		if err != nil {
			return err
		}
		if err := deserializeViews(blob, views); err != nil {
			return err
		}
		if got := serializeViews(nil, views); !bytes.Equal(got, want) {
			t.Error("second restore of version 0 did not return version 0's bytes")
		}
		stored, _, ok := p.Node().ScratchRead("veloc/alias/v0/rank0")
		if !ok || len(stored) < 8 || crc32.ChecksumIEEE(stored[4:]) != binary.LittleEndian.Uint32(stored) {
			t.Error("version 0's scratch blob no longer passes its CRC")
		}
		return nil
	})
}

// labelCountingView counts Label calls, the first thing classify asks of
// every captured view.
type labelCountingView struct {
	*kokkos.F64View
	calls *int
}

func (v labelCountingView) Label() string {
	*v.calls++
	return v.F64View.Label()
}

// TestCheckpointReusesClassification checks that Checkpoint classifies a
// capture list once while it stays unchanged, and classifies it again
// after an in-place edit of the list or a new alias declaration.
func TestCheckpointReusesClassification(t *testing.T) {
	runRanks(t, 1, func(p *mpi.Proc) error {
		ctx := makeVeloCCtx(t, p, p.World().CommWorld(), veloc.Collective, Config{Interval: 1000, RestoreSurvivors: true})
		calls := 0
		wrap := func(v *kokkos.F64View) kokkos.View { return labelCountingView{v, &calls} }
		x, y, w := kokkos.NewF64("x", 4), kokkos.NewF64("y", 4), kokkos.NewF64("w", 4)
		views := []kokkos.View{wrap(x), wrap(y), wrap(x.Ref("x@dup"))}
		step := func(iter int) {
			t.Helper()
			if err := ctx.Checkpoint("loop", iter, views, func() error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		labels := func() []string {
			var out []string
			for _, v := range ctx.checkpointed {
				out = append(out, v.Label())
			}
			return out
		}

		step(0)
		if calls == 0 {
			t.Fatal("the first Checkpoint did not classify its capture list")
		}
		calls = 0
		step(1)
		step(2)
		if calls != 0 {
			t.Fatalf("an unchanged capture list was classified again (%d Label calls)", calls)
		}

		views[1] = wrap(w) // edit the caller's list in place
		step(3)
		if got := labels(); fmt.Sprint(got) != "[x w]" {
			t.Fatalf("after an in-place edit checkpointed = %v, want [x w]", got)
		}
		if ck, _, sk := ctx.Census().Counts(); ck != 2 || sk != 1 {
			t.Fatalf("after an in-place edit census = %d checkpointed, %d skipped", ck, sk)
		}

		ctx.DeclareAliases("x", "w")
		step(4)
		if got := labels(); fmt.Sprint(got) != "[x]" {
			t.Fatalf("after DeclareAliases checkpointed = %v, want [x]", got)
		}
		if _, al, _ := ctx.Census().Counts(); al != 1 {
			t.Fatalf("after DeclareAliases census has %d aliases, want 1", al)
		}
		return nil
	})
}
