package kr

import (
	"sync"
	"testing"

	"repro/internal/fenix"
	"repro/internal/kokkos"
	"repro/internal/mpi"
	"repro/internal/veloc"
)

// runFenixRanks runs body under Fenix on a fresh world.
func runFenixRanks(t *testing.T, n, spares int, body fenix.Body) []error {
	t.Helper()
	w := newTestWorld(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(p *mpi.Proc) {
			defer wg.Done()
			defer func() { recover() }() // absorb Exit unwinds
			errs[p.Rank()] = fenix.Run(p, fenix.Config{Spares: spares}, body)
		}(w.Proc(i))
	}
	wg.Wait()
	return errs
}

func newTestWorld(n int) *mpi.World {
	return mpi.NewWorld(clusterOf(n), n, 1, false, 1, 0)
}

// TestCollectiveModeBreaksAfterRepair reproduces the paper's motivation
// for the non-collective VeloC mode (Section V): a collective-mode client
// holds the original resilient communicator; after a failure that
// communicator is revoked, so every internal collective the client
// attempts fails. The single-mode client with the manual reduction keeps
// working.
func TestCollectiveModeBreaksAfterRepair(t *testing.T) {
	const n, spares = 4, 1
	var mu sync.Mutex
	sawRevoked := false
	singleOK := false

	errs := runFenixRanks(t, n, spares, func(ctx *fenix.Context) error {
		p := ctx.Proc()
		x := kokkos.NewF64("x", 4)

		if ctx.Role() == fenix.RoleInitial {
			// Build BOTH clients against the initial resilient comm.
			collClient, err := veloc.New(p, veloc.Config{Mode: veloc.Collective, Comm: ctx.Comm()})
			if err != nil {
				return err
			}
			collBackend := NewVeloCBackend(collClient, "coll")
			blob := serializeViews(nil, []kokkos.View{x})
			if err := collBackend.Checkpoint(0, blob, len(blob)); err != nil {
				return err
			}

			if p.Rank() == 1 {
				p.Exit()
			}
			if err := ctx.Comm().Barrier(p); err != nil {
				// Stash the collective client for the post-recovery probe.
				probe := func() {
					_, verr := collClient.LatestVersion("coll")
					if mpi.IsRevoked(verr) || mpi.IsProcessFailure(verr) {
						mu.Lock()
						sawRevoked = true
						mu.Unlock()
					}
				}
				probeStash.Store(p.Rank(), probe)
				return err // jump to Fenix recovery
			}
			return nil
		}

		// Post-recovery: the collective-mode client is now unusable...
		if v, ok := probeStash.Load(p.Rank()); ok {
			v.(func())()
		}
		// ...but a single-mode client with the manual reduction over the
		// REPAIRED communicator works.
		single, err := veloc.New(p, veloc.Config{Mode: veloc.Single, Rank: ctx.Rank(), RankSet: true})
		if err != nil {
			return err
		}
		backend := NewVeloCBackend(single, "single")
		blob := serializeViews(nil, []kokkos.View{x})
		if err := backend.Checkpoint(1, blob, len(blob)); err != nil {
			return err
		}
		if _, err := backend.LatestVersion(ctx.Comm()); err != nil {
			return err
		}
		mu.Lock()
		singleOK = true
		mu.Unlock()
		return nil
	})
	for i, e := range errs {
		if e != nil {
			t.Fatalf("world rank %d: %v", i, e)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !sawRevoked {
		t.Fatal("collective-mode client survived the repair; the paper's modification would be unnecessary")
	}
	if !singleOK {
		t.Fatal("single-mode client did not work after repair")
	}
}

var probeStash sync.Map

// TestFullFig4PatternUnderFenix is the end-to-end Figure 4 flow at the kr
// package level: MakeContext on initial ranks, Reset on survivors, fresh
// MakeContext on the recovered spare, loop resumption from
// latest_version().
func TestFullFig4PatternUnderFenix(t *testing.T) {
	const n, spares, iters, interval = 4, 1, 12, 4 // n application ranks
	const worldN = n + spares
	type holder struct {
		ctx *Context
		x   *kokkos.F64View
	}
	holders := make([]*holder, worldN)
	var mu sync.Mutex
	finals := map[int]float64{}

	errs := runFenixRanks(t, worldN, spares, func(fctx *fenix.Context) error {
		p := fctx.Proc()
		var h *holder
		if fctx.Role() == fenix.RoleSurvivor && holders[p.Rank()] != nil {
			h = holders[p.Rank()]
			if err := h.ctx.Reset(fctx.Comm()); err != nil {
				return err
			}
		} else {
			client, err := veloc.New(p, veloc.Config{Mode: veloc.Single, Rank: fctx.Rank(), RankSet: true})
			if err != nil {
				return err
			}
			ctx, err := MakeContext(p, fctx.Comm(), NewVeloCBackend(client, "fig4"),
				Config{Interval: interval, RestoreSurvivors: true})
			if err != nil {
				return err
			}
			h = &holder{ctx: ctx, x: kokkos.NewF64("x", 2)}
			h.x.Set(0, float64(fctx.Rank()))
			holders[p.Rank()] = h
		}

		start := 0
		if h.ctx.RecoveryPending() {
			start = h.ctx.LatestVersion()
		}
		for i := start; i < iters; i++ {
			if fctx.Role() == fenix.RoleInitial && fctx.Rank() == 2 && i == 6 {
				p.Exit()
			}
			err := h.ctx.Checkpoint("loop", i, []kokkos.View{h.x}, func() error {
				sum, err := fctx.Comm().AllreduceF64(p, []float64{h.x.At(0)}, mpi.OpSum)
				if err != nil {
					return err
				}
				h.x.Set(0, h.x.At(0)+0.125*sum[0])
				return nil
			})
			if err = fctx.Check(err); err != nil {
				return err
			}
		}
		mu.Lock()
		finals[fctx.Rank()] = h.x.At(0)
		mu.Unlock()
		return nil
	})
	for i, e := range errs {
		if e != nil {
			t.Fatalf("world rank %d: %v", i, e)
		}
	}

	// Reference: failure-free sequential emulation.
	ref := make([]float64, n)
	for r := range ref {
		ref[r] = float64(r)
	}
	for i := 0; i < iters; i++ {
		var sum float64
		for _, v := range ref {
			sum += v
		}
		for r := range ref {
			ref[r] += 0.125 * sum
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for r := 0; r < n; r++ {
		got, ok := finals[r]
		if !ok {
			t.Fatalf("logical rank %d missing", r)
		}
		if got != ref[r] {
			t.Fatalf("logical rank %d: got %v want %v", r, got, ref[r])
		}
	}
}
