package mpi

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/trace"
)

// quietMachine returns a cost model with no jitter for deterministic tests.
func quietMachine() *sim.Machine {
	m := sim.DefaultMachine()
	m.NoiseAmplitude = 0
	return m
}

// testWorld spins up a world of n ranks with ULFM semantics.
func testWorld(n int) *World {
	cl := cluster.New(n, quietMachine())
	return NewWorld(cl, n, 1, false, 1, 0)
}

// runWorld runs f on every rank of w and returns per-rank errors.
// It recovers the kill/abort unwinds like the launcher does.
func runWorld(w *World, f RankFunc) []error {
	outcomes := runRanks(w, f)
	errs := make([]error, len(outcomes))
	for i, o := range outcomes {
		errs[i] = o.err
	}
	return errs
}

func TestWorldConstruction(t *testing.T) {
	w := testWorld(4)
	if w.Size() != 4 {
		t.Fatalf("Size() = %d", w.Size())
	}
	if w.CommWorld().Size() != 4 {
		t.Fatalf("CommWorld size = %d", w.CommWorld().Size())
	}
	for i := 0; i < 4; i++ {
		if w.Proc(i).Rank() != i {
			t.Fatalf("proc %d rank %d", i, w.Proc(i).Rank())
		}
		if got := w.CommWorld().Rank(w.Proc(i)); got != i {
			t.Fatalf("comm rank of proc %d = %d", i, got)
		}
	}
}

func TestRankPlacement(t *testing.T) {
	cl := cluster.New(2, quietMachine())
	w := NewWorld(cl, 4, 2, false, 1, 0)
	if w.Proc(0).Node().ID() != 0 || w.Proc(1).Node().ID() != 0 {
		t.Fatal("ranks 0,1 should share node 0")
	}
	if w.Proc(2).Node().ID() != 1 || w.Proc(3).Node().ID() != 1 {
		t.Fatal("ranks 2,3 should share node 1")
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	payload := []byte("halo row")
	errs := runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			return c.Send(p, 1, 7, payload)
		}
		got, err := c.Recv(p, 0, 7)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("recv %q, want %q", got, payload)
		}
		return nil
	})
	for i, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", i, e)
		}
	}
}

func TestSendRecvAdvancesClocks(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			return c.Send(p, 1, 0, make([]byte, 1<<20))
		}
		_, err := c.Recv(p, 0, 0)
		return err
	})
	if w.Proc(0).Now() <= 0 {
		t.Fatal("sender clock did not advance")
	}
	if w.Proc(1).Now() < w.Proc(0).Now() {
		t.Fatal("receiver clock behind sender")
	}
	if w.Proc(1).Recorder().Get(trace.AppMPI) <= 0 {
		t.Fatal("receiver MPI time not recorded")
	}
}

func TestTagMatching(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			if err := c.Send(p, 1, 1, []byte("one")); err != nil {
				return err
			}
			return c.Send(p, 1, 2, []byte("two"))
		}
		// Receive out of order: tag 2 first.
		got2, err := c.Recv(p, 0, 2)
		if err != nil {
			return err
		}
		got1, err := c.Recv(p, 0, 1)
		if err != nil {
			return err
		}
		if string(got2) != "two" || string(got1) != "one" {
			t.Errorf("tag matching broken: %q %q", got1, got2)
		}
		return nil
	})
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				if err := c.Send(p, 1, 0, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 10; i++ {
			got, err := c.Recv(p, 0, 0)
			if err != nil {
				return err
			}
			if got[0] != byte(i) {
				t.Errorf("message %d arrived out of order: %d", i, got[0])
			}
		}
		return nil
	})
}

func TestSendrecvPairNoDeadlock(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		other := 1 - p.Rank()
		out := []byte{byte(p.Rank())}
		in, err := c.Sendrecv(p, other, 0, out, other, 0)
		if err != nil {
			return err
		}
		if in[0] != byte(other) {
			t.Errorf("rank %d got %d", p.Rank(), in[0])
		}
		return nil
	})
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := testWorld(4)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		p.ComputeExact(float64(p.Rank()+1) * 1e9) // ranks finish at different times
		return c.Barrier(p)
	})
	t3 := w.Proc(3).Now()
	for i := 0; i < 4; i++ {
		if w.Proc(i).Now() < t3 {
			t.Fatalf("rank %d clock %v behind slowest rank %v", i, w.Proc(i).Now(), t3)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	w := testWorld(4)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		in := []float64{float64(p.Rank()), 1}
		out, err := c.AllreduceF64(p, in, OpSum)
		if err != nil {
			return err
		}
		if out[0] != 6 || out[1] != 4 {
			t.Errorf("rank %d allreduce sum = %v", p.Rank(), out)
		}
		return nil
	})
}

func TestAllreduceMinMax(t *testing.T) {
	w := testWorld(4)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		in := []float64{float64(p.Rank())}
		mn, err := c.AllreduceF64(p, in, OpMin)
		if err != nil {
			return err
		}
		mx, err := c.AllreduceF64(p, in, OpMax)
		if err != nil {
			return err
		}
		if mn[0] != 0 || mx[0] != 3 {
			t.Errorf("min/max = %v/%v", mn[0], mx[0])
		}
		return nil
	})
}

func TestAllreduceInt(t *testing.T) {
	w := testWorld(3)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		v, err := c.AllreduceInt(p, p.Rank()+10, OpMin)
		if err != nil {
			return err
		}
		if v != 10 {
			t.Errorf("AllreduceInt min = %d", v)
		}
		return nil
	})
}

func TestAllreduceDeterministicOrder(t *testing.T) {
	// Summation order must be comm-rank order for bitwise reproducibility.
	vals := []float64{1e16, 1, -1e16, 1}
	want := ((vals[0] + vals[1]) + vals[2]) + vals[3]
	w := testWorld(4)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		out, err := c.AllreduceF64(p, []float64{vals[p.Rank()]}, OpSum)
		if err != nil {
			return err
		}
		if out[0] != want {
			t.Errorf("non-deterministic sum: got %v want %v", out[0], want)
		}
		return nil
	})
}

func TestSubCommunicator(t *testing.T) {
	w := testWorld(4)
	sub := w.NewComm([]int{1, 3})
	runWorld(w, func(p *Proc) error {
		if p.Rank()%2 == 0 {
			if sub.Rank(p) != -1 {
				t.Errorf("rank %d should not be in sub comm", p.Rank())
			}
			return nil
		}
		v, err := sub.AllreduceInt(p, 1, OpSum)
		if err != nil {
			return err
		}
		if v != 2 {
			t.Errorf("sub comm allreduce = %d", v)
		}
		return nil
	})
	if sub.WorldRank(0) != 1 || sub.WorldRank(1) != 3 {
		t.Fatal("sub comm group mapping wrong")
	}
}

func TestDuplicateGroupPanics(t *testing.T) {
	w := testWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate group did not panic")
		}
	}()
	w.NewComm([]int{0, 0})
}

// --- failure semantics ---

func TestSendToDeadRankFails(t *testing.T) {
	// Sends are locally complete and fail fast only on the sender's own
	// failure knowledge: rank 0 first observes rank 1's death through a
	// failed Recv, after which its sends to the dead rank fail.
	w := testWorld(2)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Exit()
		}
		if _, err := c.Recv(p, 1, 0); !IsProcessFailure(err) {
			t.Errorf("recv from dead rank: %v", err)
		}
		return c.Send(p, 1, 0, []byte("x"))
	})
	if !IsProcessFailure(errs[0]) {
		t.Fatalf("send to dead rank: err = %v", errs[0])
	}
}

func TestRecvFromDeadRankFails(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Exit()
		}
		_, err := c.Recv(p, 1, 0)
		return err
	})
	if !IsProcessFailure(errs[0]) {
		t.Fatalf("recv from dead rank: err = %v", errs[0])
	}
}

func TestRecvDrainsBufferedBeforeFailing(t *testing.T) {
	// A message sent before the sender died must still be receivable
	// (eager/buffered semantics).
	w := testWorld(2)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		if p.Rank() == 1 {
			if err := c.Send(p, 0, 0, []byte("last words")); err != nil {
				return err
			}
			p.Exit()
		}
		got, err := c.Recv(p, 1, 0)
		if err != nil {
			return err
		}
		if string(got) != "last words" {
			t.Errorf("got %q", got)
		}
		// The next recv must fail.
		_, err = c.Recv(p, 1, 0)
		if !IsProcessFailure(err) {
			t.Errorf("second recv: %v", err)
		}
		return nil
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
}

func TestCollectiveFailsOnDeadMember(t *testing.T) {
	w := testWorld(4)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		if p.Rank() == 2 {
			p.Exit()
		}
		return c.Barrier(p)
	})
	for i, e := range errs {
		if i == 2 {
			continue
		}
		if !IsProcessFailure(e) {
			t.Fatalf("rank %d barrier err = %v", i, e)
		}
	}
}

func TestFailedErrorListsDeadRanks(t *testing.T) {
	w := testWorld(3)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Exit()
		}
		return c.Barrier(p)
	})
	var fe *FailedError
	if !errorsAs(errs[0], &fe) {
		t.Fatalf("err = %v", errs[0])
	}
	if !reflect.DeepEqual(fe.WorldRanks, []int{1}) {
		t.Fatalf("failed ranks %v", fe.WorldRanks)
	}
}

func errorsAs(err error, target *(*FailedError)) bool {
	fe, ok := err.(*FailedError)
	if ok {
		*target = fe
	}
	return ok
}

func TestDeadRanksAndAliveCount(t *testing.T) {
	w := testWorld(3)
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Exit()
		}
		for !w.isDead(0) {
		}
		return nil
	})
	if got := w.DeadRanks(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("DeadRanks = %v", got)
	}
	if alive := len(w.procs) - len(w.deadLs); alive != 2 {
		t.Fatalf("alive count = %d", alive)
	}
}

// --- ULFM operations ---

func TestRevokePoisonsPendingAndFutureOps(t *testing.T) {
	w := testWorld(3)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			// Block in a recv that nobody will satisfy.
			_, err := c.Recv(p, 1, 99)
			if !IsRevoked(err) {
				t.Errorf("pending recv after revoke: %v", err)
			}
			return nil
		case 1:
			c.Revoke(p)
			// Future op fails.
			if err := c.Send(p, 2, 0, nil); !IsRevoked(err) {
				t.Errorf("send after revoke: %v", err)
			}
			return nil
		default:
			for !c.Revoked() {
			}
			if err := c.Barrier(p); !IsRevoked(err) {
				t.Errorf("barrier after revoke: %v", err)
			}
			return nil
		}
	})
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
}

// --- codec ---

func TestF64CodecRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		// NaN breaks reflect.DeepEqual; compare bitwise instead.
		dec := make([]float64, len(v))
		if err := DecodeF64Into(dec, EncodeF64(v)); err != nil {
			return false
		}
		for i := range v {
			if math.Float64bits(dec[i]) != math.Float64bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeF64RejectsBadLength(t *testing.T) {
	if err := DecodeF64Into(make([]float64, 1), make([]byte, 7)); err == nil {
		t.Fatal("DecodeF64Into accepted length 7")
	}
	if err := DecodeF64Into(make([]float64, 1), make([]byte, 16)); err == nil {
		t.Fatal("DecodeF64Into accepted 16 bytes for one value")
	}
}

func TestSendRecvF64(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	want := []float64{1.5, -2.25, math.Pi}
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			return c.Send(p, 1, 0, EncodeF64(want))
		}
		b, err := c.Recv(p, 0, 0)
		if err != nil {
			return err
		}
		got := make([]float64, len(want))
		if err := DecodeF64Into(got, b); err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("got %v", got)
		}
		return nil
	})
}
