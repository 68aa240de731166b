package heatdis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kokkos"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// This file adds a 2-D block decomposition of the heat-distribution
// benchmark over a Cartesian process topology (mpi.Cart): ranks form a
// near-square grid and exchange row halos vertically and column halos
// horizontally. The physics and the resilience wiring are identical to
// the 1-D variant; the point is (a) exercising the topology machinery a
// production stencil code would use and (b) the decomposition-invariance
// property: the same global problem computed on 1 rank and on a P-rank
// grid yields the same field.
type Config2D struct {
	// BytesPerRank is the simulated data size per rank (two grids).
	BytesPerRank int
	// Iterations and CheckpointInterval as in Config.
	Iterations         int
	CheckpointInterval int
	// GlobalRows/GlobalCols size the real global grid; they are rounded
	// up to multiples of the process grid.
	GlobalRows, GlobalCols int
}

func (c *Config2D) normalize() {
	if c.GlobalRows <= 0 {
		c.GlobalRows = 32
	}
	if c.GlobalCols <= 0 {
		c.GlobalCols = 32
	}
	if c.Iterations <= 0 {
		c.Iterations = 60
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 10
	}
	if c.BytesPerRank <= 0 {
		c.BytesPerRank = 16 * c.GlobalRows * c.GlobalCols
	}
}

// state2D is one rank's block: a (br+2) x (bc+2) grid with a ghost frame.
type state2D struct {
	h, g    *kokkos.F64View
	capture []kokkos.View
	br, bc  int       // interior block size
	colBuf  []float64 // one column halo, packed to send or decoded on receipt
	pr, pc  int       // process grid
	cr, cc  int       // this rank's grid coordinates
}

func newState2D(cfg *Config2D, s *core.Session, cart *mpi.Cart) (*state2D, error) {
	dims := cart.Dims()
	coords := cart.Coords(s.Rank())
	st := &state2D{pr: dims[0], pc: dims[1], cr: coords[0], cc: coords[1]}

	gr := roundUp(cfg.GlobalRows, st.pr)
	gc := roundUp(cfg.GlobalCols, st.pc)
	st.br = gr / st.pr
	st.bc = gc / st.pc
	st.colBuf = make([]float64, st.br+2)

	st.h = kokkos.NewF64("heat2d", st.br+2, st.bc+2)
	st.g = kokkos.NewF64("heat2d_next", st.br+2, st.bc+2)
	half := cfg.BytesPerRank / 2
	st.h.SetSimBytes(half)
	st.g.SetSimBytes(half)

	// Heat source along the global top edge.
	if st.cr == 0 {
		for j := 0; j < st.bc+2; j++ {
			st.h.Set2(0, j, sourceTemp)
			st.g.Set2(0, j, sourceTemp)
		}
	}
	st.capture = []kokkos.View{st.h, st.h.Ref("heat2d_captured"), st.g}
	s.DeclareAliases("heat2d", "heat2d_next")

	initTime := 2*float64(cfg.BytesPerRank)/s.Proc().Machine().MemBandwidth + 0.2
	s.Proc().ChargeTime(trace.Other, initTime)
	return st, nil
}

func roundUp(n, m int) int { return (n + m - 1) / m * m }

const (
	tag2dRow = 31
	tag2dCol = 32
)

// exchange swaps halos with the four neighbors. Row halos are contiguous;
// column halos are packed/unpacked with a stride. Simulated transfer
// sizes scale with the simulated block edge.
func (st *state2D) exchange(s *core.Session, cart *mpi.Cart, simEdgeBytes int) error {
	comm, p := s.Comm(), s.Proc()
	me := s.Rank()
	w := st.bc + 2

	row := func(i int) []float64 { return st.h.Data()[i*w : (i+1)*w] }
	col := func(j int) []float64 {
		for i := range st.colBuf {
			st.colBuf[i] = st.h.At2(i, j)
		}
		return st.colBuf
	}
	setCol := func(j int, b []byte) error {
		if err := mpi.DecodeF64Into(st.colBuf, b); err != nil {
			return err
		}
		for i, v := range st.colBuf {
			st.h.Set2(i, j, v)
		}
		return nil
	}

	// Vertical: dim 0. Send the top interior row up, bottom interior row
	// down; receive into the ghost rows.
	// Shift returns (src, dst): the neighbors at -1 (above in grid
	// numbering) and +1 (below) in dim 0.
	above, below := cart.Shift(me, 0, 1)
	if above >= 0 {
		got, err := comm.SendrecvSized(p, above, tag2dRow, mpi.EncodeF64(row(1)), simEdgeBytes, above, tag2dRow)
		if err != nil {
			return err
		}
		if err := mpi.DecodeF64Into(row(0), got); err != nil {
			return err
		}
	}
	if below >= 0 {
		got, err := comm.SendrecvSized(p, below, tag2dRow, mpi.EncodeF64(row(st.br)), simEdgeBytes, below, tag2dRow)
		if err != nil {
			return err
		}
		if err := mpi.DecodeF64Into(row(st.br+1), got); err != nil {
			return err
		}
	}

	// Horizontal: dim 1.
	left, right := cart.Shift(me, 1, 1)
	if left >= 0 {
		got, err := comm.SendrecvSized(p, left, tag2dCol, mpi.EncodeF64(col(1)), simEdgeBytes, left, tag2dCol)
		if err != nil {
			return err
		}
		if err := setCol(0, got); err != nil {
			return err
		}
	}
	if right >= 0 {
		got, err := comm.SendrecvSized(p, right, tag2dCol, mpi.EncodeF64(col(st.bc)), simEdgeBytes, right, tag2dCol)
		if err != nil {
			return err
		}
		if err := setCol(st.bc+1, got); err != nil {
			return err
		}
	}
	return nil
}

// step2D runs one Jacobi update on the block interior and returns the
// local residual.
func (st *state2D) step2D(cfg *Config2D, s *core.Session) float64 {
	var delta float64
	for i := 1; i <= st.br; i++ {
		for j := 1; j <= st.bc; j++ {
			v := 0.25 * (st.h.At2(i-1, j) + st.h.At2(i+1, j) + st.h.At2(i, j-1) + st.h.At2(i, j+1))
			st.g.Set2(i, j, v)
			if d := abs(v - st.h.At2(i, j)); d > delta {
				delta = d
			}
		}
	}
	kokkos.DeepCopyF64(st.h, st.g)
	simCells := float64(cfg.BytesPerRank) / 16
	s.Proc().Compute(opsPerCell * simCells)
	return delta
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// checksum2D digests the interior using GLOBAL cell indices so results
// are comparable across decompositions.
func (st *state2D) checksum2D() float64 {
	var sum float64
	for i := 1; i <= st.br; i++ {
		for j := 1; j <= st.bc; j++ {
			gi := st.cr*st.br + i
			gj := st.cc*st.bc + j
			sum += st.h.At2(i, j) * float64(gi*31+gj)
		}
	}
	return sum
}

// App2D builds the 2-D decomposed application body.
func App2D(cfg Config2D, sink *Sink) core.App {
	cfg.normalize()
	return func(s *core.Session) error {
		dims := mpi.BalancedDims(s.Size(), 2)
		cart, err := mpi.NewCart(s.Comm(), dims, []bool{false, false})
		if err != nil {
			return fmt.Errorf("heatdis2d: %w", err)
		}

		resume := s.ResumeIteration()
		var st *state2D
		if v, ok := s.Store["heatdis2d"]; ok && resume >= 0 {
			st = v.(*state2D)
		} else {
			st, err = newState2D(&cfg, s, cart)
			if err != nil {
				return err
			}
			s.Store["heatdis2d"] = st
		}

		// Simulated halo edge: one side of a square simulated block.
		simEdgeBytes := isqrt(cfg.BytesPerRank/16) * 8

		start := 0
		if resume >= 0 {
			start = resume
		}
		var lastDelta float64
		for i := start; i < cfg.Iterations; i++ {
			var local float64
			err := s.Checkpoint("heatdis2d", i, st.capture, func() error {
				if err := st.exchange(s, cart, simEdgeBytes); err != nil {
					return err
				}
				local = st.step2D(&cfg, s)
				return nil
			})
			if err != nil {
				return err
			}
			global := [1]float64{local}
			if _, err := s.Comm().AllreduceF64(s.Proc(), global[:], mpi.OpMax); err != nil {
				return s.Check(err)
			}
			lastDelta = global[0]
		}
		sink.Put(Result{Rank: s.Rank(), Iterations: cfg.Iterations, Delta: lastDelta, Checksum: st.checksum2D()})
		return nil
	}
}

func isqrt(n int) int {
	if n <= 0 {
		return 1
	}
	x := 1
	for x*x < n {
		x++
	}
	return x
}
