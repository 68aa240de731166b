package heatdis

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kokkos"
	"repro/internal/sim"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// deepCopyRelax is the Jacobi update as first written: every read through
// At2, every write through Set2, then a whole-grid DeepCopyF64(h, g). It
// is the oracle the row-slice kernel must match bit for bit.
func deepCopyRelax(h, g *kokkos.F64View, rows, cols int) float64 {
	var delta float64
	for i := 1; i <= rows; i++ {
		for j := 0; j < cols; j++ {
			left, right := j-1, j+1
			if left < 0 {
				left = 0
			}
			if right >= cols {
				right = cols - 1
			}
			v := 0.25 * (h.At2(i-1, j) + h.At2(i+1, j) + h.At2(i, left) + h.At2(i, right))
			g.Set2(i, j, v)
			if d := math.Abs(v - h.At2(i, j)); d > delta {
				delta = d
			}
		}
	}
	kokkos.DeepCopyF64(h, g)
	return delta
}

// deepCopyRelax2D is the 2-D block update as first written.
func deepCopyRelax2D(h, g *kokkos.F64View, br, bc int) float64 {
	var delta float64
	for i := 1; i <= br; i++ {
		for j := 1; j <= bc; j++ {
			v := 0.25 * (h.At2(i-1, j) + h.At2(i+1, j) + h.At2(i, j-1) + h.At2(i, j+1))
			g.Set2(i, j, v)
			d := v - h.At2(i, j)
			if d < 0 {
				d = -d
			}
			if d > delta {
				delta = d
			}
		}
	}
	kokkos.DeepCopyF64(h, g)
	return delta
}

// fillRandom fills v with values in [-50, 150).
func fillRandom(v *kokkos.F64View, rng *sim.RNG) {
	for i := range v.Data() {
		v.Data()[i] = 200*rng.Float64() - 50
	}
}

// sameBits reports the first element where a and b differ bitwise.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("element %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestStepMatchesDeepCopyKernel runs the row-slice kernels beside the
// At2 + DeepCopyF64 oracle on random grids, ghost rows and ghost columns
// included, and requires h, g and delta to agree bit for bit after every
// step. One interior cell of h is NaN (it must never win the residual),
// the grids of the source rank carry the heat-source ghost row, and the
// ghost rows of h are refilled before each step as a halo exchange would.
func TestStepMatchesDeepCopyKernel(t *testing.T) {
	const steps = 4
	for _, twoD := range []bool{false, true} {
		for _, rows := range []int{1, 2, 3, 17} {
			for _, cols := range []int{1, 2, 3, 64} {
				for _, source := range []bool{false, true} {
					name := fmt.Sprintf("2d=%v/%dx%d/source=%v", twoD, rows, cols, source)
					t.Run(name, func(t *testing.T) {
						w := cols
						if twoD {
							w = cols + 2
						}
						rng := sim.NewRNG(uint64(rows*1000 + cols))
						h := kokkos.NewF64("heat", rows+2, w)
						g := kokkos.NewF64("heat_next", rows+2, w)
						fillRandom(h, rng)
						fillRandom(g, rng)
						if source {
							for j := 0; j < w; j++ {
								h.Set2(0, j, sourceTemp)
								g.Set2(0, j, sourceTemp)
							}
						}
						h.Set2(1+rows/2, w/2, math.NaN())
						oh, og := h.Clone(), g.Clone()

						for k := 0; k < steps; k++ {
							// Halo rows arrive in h only; the source rank
							// has no upper neighbour.
							for j := 0; j < w; j++ {
								if !source {
									x := 200*rng.Float64() - 50
									h.Set2(0, j, x)
									oh.Set2(0, j, x)
								}
								x := 200*rng.Float64() - 50
								h.Set2(rows+1, j, x)
								oh.Set2(rows+1, j, x)
							}
							var got, want float64
							if twoD {
								st := &state2D{h: h, g: g, br: rows, bc: cols}
								got, want = st.relax2D(), deepCopyRelax2D(oh, og, rows, cols)
							} else {
								st := &state{h: h, g: g, rows: rows, cols: cols}
								got, want = st.relax(), deepCopyRelax(oh, og, rows, cols)
							}
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("step %d: delta %v, oracle %v", k, got, want)
							}
							if err := sameBits(h.Data(), oh.Data()); err != nil {
								t.Fatalf("step %d: h: %v", k, err)
							}
							if err := sameBits(g.Data(), og.Data()); err != nil {
								t.Fatalf("step %d: g: %v", k, err)
							}
						}
					})
				}
			}
		}
	}
}

// TestStepAllocatesNothing pins both Jacobi kernels at zero heap
// allocations per step.
func TestStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are not the kernel's")
	}
	st := &state{h: kokkos.NewF64("heat", 34, 64), g: kokkos.NewF64("heat_next", 34, 64), rows: 32, cols: 64}
	st2 := &state2D{h: kokkos.NewF64("heat2d", 18, 18), g: kokkos.NewF64("heat2d_next", 18, 18), br: 16, bc: 16}
	if n := testing.AllocsPerRun(20, func() { st.relax() }); n != 0 {
		t.Fatalf("1-D step allocates %v times", n)
	}
	if n := testing.AllocsPerRun(20, func() { st2.relax2D() }); n != 0 {
		t.Fatalf("2-D step allocates %v times", n)
	}
}

// benchDelta keeps the benchmarked residual live.
var benchDelta float64

// BenchmarkHeatdisStep times the 1-D Jacobi kernel on a 1024x1024 grid,
// the real size of one heatdis_bytes rank, and reports ns per cell.
func BenchmarkHeatdisStep(b *testing.B) {
	const rows, cols = 1024, 1024
	st := &state{h: kokkos.NewF64("heat", rows+2, cols), g: kokkos.NewF64("heat_next", rows+2, cols), rows: rows, cols: cols}
	fillRandom(st.h, sim.NewRNG(1))
	// One untimed step faults in g's pages, as a rank's first iteration
	// does, so that -benchtime 1x times a warm step.
	st.relax()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDelta = st.relax()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*cols), "ns/cell")
}
