package mpi

import (
	"math"
	"testing"
	"testing/quick"
)

// collect runs an allreduce over ranks' generated vectors and compares
// against a sequential reference reduction.
func allreduceMatchesReference(vals [][]float64, op ReduceOp) bool {
	n := len(vals)
	if n == 0 {
		return true
	}
	width := len(vals[0])
	for _, v := range vals {
		if len(v) != width {
			return true // skip ragged inputs
		}
	}
	// Sequential reference in rank order.
	ref := make([]float64, width)
	copy(ref, vals[0])
	for r := 1; r < n; r++ {
		for i, x := range vals[r] {
			ref[i] = op.apply(ref[i], x)
		}
	}

	w := testWorld(n)
	c := w.CommWorld()
	results := make([][]float64, n)
	errs := runWorld(w, func(p *Proc) error {
		out, err := c.AllreduceF64(p, vals[p.Rank()], op)
		if err != nil {
			return err
		}
		results[p.Rank()] = out
		return nil
	})
	for _, e := range errs {
		if e != nil {
			return false
		}
	}
	for _, got := range results {
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				return false
			}
		}
	}
	return true
}

func clampVals(a, b, c []float64, width int) [][]float64 {
	clamp := func(v []float64) []float64 {
		out := make([]float64, width)
		for i := 0; i < width && i < len(v); i++ {
			x := v[i]
			if math.IsNaN(x) {
				x = 0
			}
			out[i] = x
		}
		return out
	}
	return [][]float64{clamp(a), clamp(b), clamp(c)}
}

func TestAllreduceSumProperty(t *testing.T) {
	f := func(a, b, c []float64) bool {
		return allreduceMatchesReference(clampVals(a, b, c, 5), OpSum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMinMaxProperty(t *testing.T) {
	fMin := func(a, b, c []float64) bool {
		return allreduceMatchesReference(clampVals(a, b, c, 3), OpMin)
	}
	fMax := func(a, b, c []float64) bool {
		return allreduceMatchesReference(clampVals(a, b, c, 3), OpMax)
	}
	if err := quick.Check(fMin, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(fMax, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonicityUnderTraffic(t *testing.T) {
	// Property: virtual clocks never move backwards regardless of message
	// pattern.
	w := testWorld(4)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		last := p.Now()
		check := func() error {
			if p.Now() < last {
				t.Errorf("rank %d clock went backwards: %v -> %v", p.Rank(), last, p.Now())
			}
			last = p.Now()
			return nil
		}
		for i := 0; i < 20; i++ {
			dst := (p.Rank() + 1) % 4
			src := (p.Rank() + 3) % 4
			if _, err := c.Sendrecv(p, dst, 0, []byte{byte(i)}, src, 0); err != nil {
				return err
			}
			check()
			if _, err := c.AllreduceInt(p, i, OpSum); err != nil {
				return err
			}
			check()
			p.Compute(1e5)
			check()
		}
		return nil
	})
}
