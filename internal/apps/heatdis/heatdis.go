// Package heatdis reproduces the VeloC heat-distribution benchmark
// (Heatdis) ported to Kokkos parallelism, the first of the paper's two
// evaluation applications: a 2-D Jacobi stencil distributed across ranks by
// row blocks, with halo exchanges between neighbours and a global residual
// reduction each iteration.
//
// Two variants mirror Section VI-A:
//
//   - Fixed-iteration: runs a static number of iterations and checkpoints
//     by iteration count; all tests perform 6 checkpoints, each half the
//     size of the application's data (one of the two grids).
//   - Convergence: runs until the residual drops below epsilon, the
//     variant that demonstrates partial rollback — survivors keep their
//     in-progress data and the solver simply re-converges.
//
// The grid has a simulated size (the paper's 64 MB – 4 GB per rank, which
// drives every cost model) and a small real allocation on which the actual
// arithmetic runs, keeping results bit-exact and testable.
package heatdis

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/kokkos"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Config parameterizes a Heatdis run.
type Config struct {
	// BytesPerRank is the simulated application data size per rank (two
	// grids); checkpoints cover one grid, i.e. half of it.
	BytesPerRank int
	// Iterations is the fixed iteration count (fixed variant).
	Iterations int
	// CheckpointInterval checkpoints every k-th iteration.
	CheckpointInterval int
	// Convergence selects the run-until-converged variant.
	Convergence bool
	// Epsilon is the convergence threshold on the global residual.
	Epsilon float64
	// MaxIterations caps the convergence variant.
	MaxIterations int
	// ActualRows and ActualCols size the real allocation per rank
	// (defaults 32x64). The simulated grid is BytesPerRank/16 cells wide
	// by simCols columns.
	ActualRows, ActualCols int
}

// simCols is the simulated grid width in cells (one halo row is
// 8*simCols bytes on the wire).
const simCols = 4096

func (c *Config) normalize() {
	if c.ActualRows <= 0 {
		c.ActualRows = 32
	}
	if c.ActualCols <= 0 {
		c.ActualCols = 64
	}
	if c.BytesPerRank <= 0 {
		c.BytesPerRank = 16 * c.ActualRows * c.ActualCols
	}
	if c.Iterations <= 0 {
		c.Iterations = 60
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 10
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-2
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 10000
	}
}

// SimRows returns the simulated row count per rank.
func (c Config) SimRows() int {
	cc := c
	cc.normalize()
	return cc.BytesPerRank / (2 * 8 * simCols)
}

// Result is one rank's final state.
type Result struct {
	Rank       int
	Iterations int
	Delta      float64
	Checksum   float64
}

// Sink collects per-logical-rank results across a job.
type Sink struct {
	mu      sync.Mutex
	results map[int]Result
}

// NewSink returns an empty sink.
func NewSink() *Sink { return &Sink{results: make(map[int]Result)} }

// Put records rank's result (last write wins).
func (s *Sink) Put(r Result) {
	s.mu.Lock()
	s.results[r.Rank] = r
	s.mu.Unlock()
}

// Get returns rank's result.
func (s *Sink) Get(rank int) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.results[rank]
	return r, ok
}

// GlobalChecksum sums the per-rank checksums over n ranks.
func (s *Sink) GlobalChecksum(n int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for r := 0; r < n; r++ {
		res, ok := s.results[r]
		if !ok {
			return 0, fmt.Errorf("heatdis: rank %d produced no result", r)
		}
		sum += res.Checksum
	}
	return sum, nil
}

// state is one rank's solver state, persisted across Fenix re-entries.
type state struct {
	h, g      *kokkos.F64View // current and next grid (with ghost rows)
	capture   []kokkos.View   // the views the checkpoint lambda captures
	stepViews []kokkos.View   // the views the stencil region writes
	rows      int             // interior rows
	cols      int
}

const (
	sourceTemp = 100.0
	haloUpTag  = 11
	haloDnTag  = 12
)

// newState allocates and initializes the solver state. Grids carry two
// ghost rows (index 0 and rows+1).
func newState(cfg *Config, s *core.Session) *state {
	st := &state{rows: cfg.ActualRows, cols: cfg.ActualCols}
	st.h = kokkos.NewF64("heat", st.rows+2, st.cols)
	st.g = kokkos.NewF64("heat_next", st.rows+2, st.cols)
	half := cfg.BytesPerRank / 2
	st.h.SetSimBytes(half)
	st.g.SetSimBytes(half)
	// Heat source along the global top edge: rank 0's upper ghost row,
	// which the stencil reads but never updates (a Dirichlet boundary).
	if s.Rank() == 0 {
		for j := 0; j < st.cols; j++ {
			st.h.Set2(0, j, sourceTemp)
			st.g.Set2(0, j, sourceTemp)
		}
	}
	// The checkpoint lambda captures the current grid, a duplicate
	// reference to it (reachable through another object, as the compiler
	// copies it), and the swap-space grid declared as an alias.
	st.capture = []kokkos.View{st.h, st.h.Ref("heat_captured"), st.g}
	st.stepViews = []kokkos.View{st.h, st.g}
	s.DeclareAliases("heat", "heat_next")

	// Application initialization cost: allocating and first-touching the
	// two grids plus fixed setup. Under fail-restart recovery every rank
	// pays this again on relaunch; under Fenix only the replacement does —
	// one of the savings the paper attributes to process-level recovery.
	initTime := 2*float64(cfg.BytesPerRank)/s.Proc().Machine().MemBandwidth + 0.2
	s.Proc().ChargeTime(trace.Other, initTime)
	return st
}

// exchangeHalos swaps boundary rows with the up/down neighbours. Transfer
// costs are charged at the simulated row width.
func (st *state) exchangeHalos(s *core.Session) error {
	comm, p := s.Comm(), s.Proc()
	me, n := s.Rank(), s.Size()
	rowBytes := func(i int) []byte {
		return mpi.EncodeF64(st.h.Data()[i*st.cols : (i+1)*st.cols])
	}
	setRow := func(i int, b []byte) error {
		return mpi.DecodeF64Into(st.h.Data()[i*st.cols:(i+1)*st.cols], b)
	}
	simRow := 8 * simCols

	if me > 0 { // exchange with up neighbour
		got, err := comm.SendrecvSized(p, me-1, haloUpTag, rowBytes(1), simRow, me-1, haloDnTag)
		if err != nil {
			return err
		}
		if err := setRow(0, got); err != nil {
			return err
		}
	}
	if me < n-1 { // exchange with down neighbour
		got, err := comm.SendrecvSized(p, me+1, haloDnTag, rowBytes(st.rows), simRow, me+1, haloUpTag)
		if err != nil {
			return err
		}
		if err := setRow(st.rows+1, got); err != nil {
			return err
		}
	}
	return nil
}

// step runs one Jacobi update and returns the local residual. The real
// arithmetic covers the actual allocation; the compute cost is charged for
// the simulated cell count.
func (st *state) step(cfg *Config, s *core.Session) float64 {
	delta := st.relax()
	s.Proc().Compute(opsPerCell * float64(cfg.SimRows()) * simCols)
	return delta
}

// relax writes the Jacobi update of every interior row of h into g, then
// leaves h equal to g (ghost rows included), as Kokkos deep_copy(h, g)
// does, and returns the largest change. The columns are clamped at both
// edges: cell j reads its left and right neighbours at max(j-1, 0) and
// min(j+1, cols-1).
func (st *state) relax() float64 {
	h, g := st.h.Data(), st.g.Data()
	rows, cols := st.rows, st.cols
	var delta float64
	for i := 1; i <= rows; i++ {
		up := h[(i-1)*cols : i*cols]
		mid := h[i*cols : (i+1)*cols]
		dn := h[(i+1)*cols : (i+2)*cols]
		out := g[i*cols : (i+1)*cols]
		delta = relaxRow(out, up, mid, dn, delta)
		delta = relaxEdge(out, up, mid, dn, 0, delta)
		if cols > 1 {
			delta = relaxEdge(out, up, mid, dn, cols-1, delta)
		}
		copyBackRow(h, g, i-1, cols)
	}
	copy(h[rows*cols:], g[rows*cols:])
	return delta
}

// relaxEdge updates the clamped edge cell j of one row.
func relaxEdge(out, up, mid, dn []float64, j int, delta float64) float64 {
	left, right := max(j-1, 0), min(j+1, len(mid)-1)
	v := 0.25 * (up[j] + dn[j] + mid[left] + mid[right])
	out[j] = v
	if d := math.Abs(v - mid[j]); d > delta {
		delta = d
	}
	return delta
}

// relaxRow writes the Jacobi average of the interior cells j in [1,
// len(mid)-2] of one row into out and returns the larger of delta and
// their largest change. The caller owns the row's first and last cell.
func relaxRow(out, up, mid, dn []float64, delta float64) float64 {
	n := len(mid)
	if n < 3 {
		return delta
	}
	// One slice per term, each holding cell j at index j-1 and all of
	// length n-2, so the loop runs without bounds checks.
	c, left, right := mid[1:n-1], mid[:n-2], mid[2:n]
	out, up, dn = out[1:n-1], up[1:n-1], dn[1:n-1]
	for k, x := range c {
		v := 0.25 * (up[k] + dn[k] + left[k] + right[k])
		out[k] = v
		if d := math.Abs(v - x); d > delta {
			delta = d
		}
	}
	return delta
}

// copyBackRow copies row i of g over row i of h. A Jacobi sweep calls it
// for row i once it has written row i+1 of g: no later row reads row i of
// h, and the row is still in cache.
func copyBackRow(h, g []float64, i, cols int) {
	copy(h[i*cols:(i+1)*cols], g[i*cols:(i+1)*cols])
}

// opsPerCell is the cost-model work per stencil cell per iteration. It is
// calibrated so that a checkpoint interval comfortably exceeds the
// asynchronous flush time at the paper's data scales — the regime the
// paper tests (failures are injected only after flushes complete).
const opsPerCell = 30

func (st *state) checksum() float64 {
	h := st.h.Data()
	var sum float64
	for i := 1; i <= st.rows; i++ {
		for j, x := range h[i*st.cols : (i+1)*st.cols] {
			sum += x * float64(i*31+j)
		}
	}
	return sum
}

// App builds the Heatdis application body for core.Run. Results land in
// sink keyed by logical rank.
func App(cfg Config, sink *Sink) core.App {
	cfg.normalize()
	return func(s *core.Session) error {
		resume := s.ResumeIteration()
		// Reuse the survivor's grids only when a checkpoint will realign
		// them; a failure before any checkpoint exists means every rank
		// starts over from the initial condition.
		var st *state
		if v, ok := s.Store["heatdis"]; ok && resume >= 0 {
			st = v.(*state)
		} else {
			st = newState(&cfg, s)
			s.Store["heatdis"] = st
		}

		limit := cfg.Iterations
		if cfg.Convergence {
			limit = cfg.MaxIterations
		}
		start := 0
		if resume >= 0 {
			start = resume
		}

		var lastDelta float64 = math.Inf(1)
		iters := 0
		for i := start; i < limit; i++ {
			var localDelta float64
			err := s.Checkpoint("heatdis", i, st.capture, func() error {
				if err := st.exchangeHalos(s); err != nil {
					return err
				}
				// The stencil update runs as a resilient region: it is
				// communication-free (halos already exchanged), so the SDC
				// layer may replay or duplicate it locally without desyncing
				// the job's collectives.
				return s.Region("heatdis.step", st.stepViews, func() {
					localDelta = st.step(&cfg, s)
				})
			})
			if err != nil {
				return err
			}
			// Global residual: an allreduce every iteration, as in the
			// VeloC benchmark. Must run outside the region body so the
			// recovery iteration (restored, body skipped) stays aligned.
			global := [1]float64{localDelta}
			if _, err := s.Comm().AllreduceF64(s.Proc(), global[:], mpi.OpMax); err != nil {
				return s.Check(err)
			}
			lastDelta = global[0]
			iters = i + 1
			// Never conclude convergence on the recovery iteration itself:
			// under full rollback the region body is skipped there and the
			// residual is not meaningful.
			if cfg.Convergence && lastDelta < cfg.Epsilon && i >= 1 && i != resume {
				break
			}
		}
		sink.Put(Result{Rank: s.Rank(), Iterations: iters, Delta: lastDelta, Checksum: st.checksum()})
		return nil
	}
}
