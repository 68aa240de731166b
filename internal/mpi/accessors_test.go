package mpi

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
)

func TestProcAccessors(t *testing.T) {
	w := testWorld(3)
	p := w.Proc(1)
	if p.Size() != 3 {
		t.Fatalf("Size = %d", p.Size())
	}
	if p.Machine() != w.Machine() {
		t.Fatal("Machine mismatch")
	}
	if p.Clock() == nil || p.RNG() == nil {
		t.Fatal("nil clock/rng")
	}
	before := p.Now()
	p.ChargeTime(trace.DataRecovery, 1.5)
	if p.Now() != before+1.5 {
		t.Fatalf("ChargeTime did not advance clock: %v", p.Now())
	}
	if p.Recorder().Get(trace.DataRecovery) != 1.5 {
		t.Fatal("ChargeTime did not record")
	}
	if w.Cluster() == nil {
		t.Fatal("nil cluster")
	}
}

func TestFailedErrorMessage(t *testing.T) {
	e := newFailedError([]int{3, 1})
	if !strings.Contains(e.Error(), "[1 3]") {
		t.Fatalf("error message %q not sorted", e.Error())
	}
}

func TestReduceOpString(t *testing.T) {
	if OpSum.String() != "sum" || OpMin.String() != "min" || OpMax.String() != "max" {
		t.Fatal("op strings wrong")
	}
	if ReduceOp(9).String() != "ReduceOp(9)" {
		t.Fatal("unknown op string wrong")
	}
}

func TestCartCommAccessor(t *testing.T) {
	w := testWorld(4)
	cart, err := NewCart(w.CommWorld(), []int{2, 2}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if cart.Comm() != w.CommWorld() {
		t.Fatal("Cart.Comm mismatch")
	}
}

func TestSendrecvF64(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		other := 1 - p.Rank()
		out := []float64{float64(p.Rank()) + 0.25}
		b, err := c.Sendrecv(p, other, 0, EncodeF64(out), other, 0)
		if err != nil {
			return err
		}
		in, err := DecodeF64(b)
		if err != nil {
			return err
		}
		if in[0] != float64(other)+0.25 {
			t.Errorf("rank %d got %v", p.Rank(), in[0])
		}
		return nil
	})
}

func TestMailboxPending(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				if err := c.Send(p, 1, 9, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return c.Barrier(p)
		}
		if err := c.Barrier(p); err != nil {
			return err
		}
		key := msgKey{comm: c.ID(), src: 0, tag: 9}
		if got := p.mail.pending(key); got != 3 {
			t.Errorf("pending = %d, want 3", got)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Recv(p, 0, 9); err != nil {
				return err
			}
		}
		if got := p.mail.pending(key); got != 0 {
			t.Errorf("pending after drain = %d", got)
		}
		return nil
	})
}

func TestWorldRankOutOfRangePanics(t *testing.T) {
	w := testWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("WorldRank(5) did not panic")
		}
	}()
	w.CommWorld().WorldRank(5)
}

func TestFailureDetectionLatency(t *testing.T) {
	m := quietMachine()
	m.FailureDetectionLatency = 0.5
	cl := cluster.New(2, m)
	w := NewWorld(cl, 2, 1, false, 1, 0)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 1 {
			p.ComputeExact(2e9) // dies at t=1.0
			p.Exit()
		}
		_, err := c.Recv(p, 1, 0)
		if !IsProcessFailure(err) {
			t.Errorf("err = %v", err)
		}
		// Rank 0 cannot observe the failure before death (1.0) + 0.5.
		if p.Now() < 1.5 {
			t.Errorf("failure observed at %v, before detection floor 1.5", p.Now())
		}
		return nil
	})
}

func TestDetectionLatencyAppliesToCollectives(t *testing.T) {
	m := quietMachine()
	m.FailureDetectionLatency = 0.5
	cl := cluster.New(3, m)
	w := NewWorld(cl, 3, 1, false, 1, 0)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 2 {
			p.ComputeExact(2e9)
			p.Exit()
		}
		err := c.Barrier(p)
		if !IsProcessFailure(err) {
			t.Errorf("err = %v", err)
		}
		if p.Now() < 1.5 {
			t.Errorf("collective failure observed at %v", p.Now())
		}
		return nil
	})
}
