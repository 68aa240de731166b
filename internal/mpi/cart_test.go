package mpi

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestCartCoordsRankRoundTrip(t *testing.T) {
	w := testWorld(12)
	cart, err := NewCart(w.CommWorld(), []int{3, 4}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		coords := cart.Coords(r)
		if got := cart.Rank(coords); got != r {
			t.Fatalf("rank %d -> %v -> %d", r, coords, got)
		}
	}
	if !reflect.DeepEqual(cart.Coords(0), []int{0, 0}) {
		t.Fatalf("coords(0) = %v", cart.Coords(0))
	}
	if !reflect.DeepEqual(cart.Coords(11), []int{2, 3}) {
		t.Fatalf("coords(11) = %v", cart.Coords(11))
	}
	if !reflect.DeepEqual(cart.Dims(), []int{3, 4}) {
		t.Fatalf("dims = %v", cart.Dims())
	}
}

func TestCartSizeMismatch(t *testing.T) {
	w := testWorld(4)
	if _, err := NewCart(w.CommWorld(), []int{3, 2}, []bool{false, false}); err == nil {
		t.Fatal("6-cell grid over 4 ranks accepted")
	}
	if _, err := NewCart(w.CommWorld(), []int{2, 2}, []bool{false}); err == nil {
		t.Fatal("mismatched periodic length accepted")
	}
	if _, err := NewCart(w.CommWorld(), nil, nil); err == nil {
		t.Fatal("empty dims accepted")
	}
	if _, err := NewCart(w.CommWorld(), []int{-2, -2}, []bool{false, false}); err == nil {
		t.Fatal("negative dims accepted")
	}
}

func TestCartShiftNonPeriodic(t *testing.T) {
	w := testWorld(6)
	cart, err := NewCart(w.CommWorld(), []int{2, 3}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 = (0,0): shifting up in dim 0 gives dst=(1,0)=rank 3, src
	// out of grid.
	src, dst := cart.Shift(0, 0, 1)
	if src != -1 || dst != 3 {
		t.Fatalf("shift(0,0,1) = %d,%d", src, dst)
	}
	// Middle of dim 1: rank 1 = (0,1).
	src, dst = cart.Shift(1, 1, 1)
	if src != 0 || dst != 2 {
		t.Fatalf("shift(1,1,1) = %d,%d", src, dst)
	}
}

func TestCartShiftPeriodic(t *testing.T) {
	w := testWorld(4)
	cart, err := NewCart(w.CommWorld(), []int{4}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := cart.Shift(0, 0, 1)
	if src != 3 || dst != 1 {
		t.Fatalf("periodic shift(0) = %d,%d", src, dst)
	}
	src, dst = cart.Shift(3, 0, 1)
	if src != 2 || dst != 0 {
		t.Fatalf("periodic shift(3) = %d,%d", src, dst)
	}
}

func TestCartHaloExchange2D(t *testing.T) {
	// A 2-D halo exchange over the topology: every rank sends its rank id
	// to its four neighbors and checks what it receives.
	const rows, cols = 2, 3
	w := testWorld(rows * cols)
	c := w.CommWorld()
	cart, err := NewCart(c, []int{rows, cols}, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	runWorld(w, func(p *Proc) error {
		me := c.Rank(p)
		for dim := 0; dim < 2; dim++ {
			src, dst := cart.Shift(me, dim, 1)
			got, err := c.Sendrecv(p, dst, 40+dim, []byte{byte(me)}, src, 40+dim)
			if err != nil {
				return err
			}
			if int(got[0]) != src {
				t.Errorf("rank %d dim %d: got %d want %d", me, dim, got[0], src)
			}
		}
		return nil
	})
}

func TestBalancedDims(t *testing.T) {
	cases := []struct {
		n, nd int
		want  []int
	}{
		{12, 2, []int{4, 3}},
		{64, 2, []int{8, 8}},
		{64, 3, []int{4, 4, 4}},
		{7, 2, []int{7, 1}},
		{1, 3, []int{1, 1, 1}},
		{30, 3, []int{5, 3, 2}},
	}
	for _, c := range cases {
		if got := BalancedDims(c.n, c.nd); !reflect.DeepEqual(got, c.want) {
			t.Errorf("BalancedDims(%d,%d) = %v, want %v", c.n, c.nd, got, c.want)
		}
	}
}

func TestBalancedDimsProductProperty(t *testing.T) {
	f := func(nRaw, ndRaw uint8) bool {
		n := int(nRaw)%100 + 1
		nd := int(ndRaw)%4 + 1
		dims := BalancedDims(n, nd)
		if len(dims) != nd {
			return false
		}
		prod := 1
		for _, d := range dims {
			if d <= 0 {
				return false
			}
			prod *= d
		}
		return prod == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubCommFailureIsolation(t *testing.T) {
	// A failure in one sub-communicator poisons that comm's collectives
	// but not the sibling's: the surviving group keeps computing.
	w := testWorld(6)
	subs := [2]*Comm{w.NewComm([]int{0, 2, 4}), w.NewComm([]int{1, 3, 5})}
	runWorld(w, func(p *Proc) error {
		color := p.Rank() % 2
		sub := subs[color]
		if p.Rank() == 1 { // a member of the odd group
			p.Exit()
		}
		if color == 1 {
			// Odd group: must observe the failure.
			if err := sub.Barrier(p); !IsProcessFailure(err) {
				t.Errorf("odd rank %d barrier err = %v", p.Rank(), err)
			}
			return nil
		}
		// Even group: unaffected, 10 collectives must all succeed.
		for i := 0; i < 10; i++ {
			if _, err := sub.AllreduceInt(p, 1, OpSum); err != nil {
				t.Errorf("even rank %d iter %d: %v", p.Rank(), i, err)
				return nil
			}
		}
		return nil
	})
}
