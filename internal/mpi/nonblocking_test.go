package mpi

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

func TestIsendIrecvRoundTrip(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	payload := []byte("nonblocking payload")
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			req, err := c.IsendSized(p, 1, 5, payload, len(payload))
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		req, err := c.Irecv(p, 0, 5)
		if err != nil {
			return err
		}
		got, err := req.Wait()
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("got %q", got)
		}
		return nil
	})
}

func TestIsendOverlapsComputation(t *testing.T) {
	// A sender that computes after IsendSized hides the transfer: its Wait is
	// nearly free. A blocking Send charges the transfer up front.
	size := 1 << 24 // 16 MB -> ~2ms transfer

	blocking := testWorld(2)
	runWorld(blocking, func(p *Proc) error {
		if p.Rank() == 0 {
			if err := blocking.CommWorld().Send(p, 1, 0, make([]byte, size)); err != nil {
				return err
			}
			p.ComputeExact(1e7) // 5 ms of compute after the send
			return nil
		}
		_, err := blocking.CommWorld().Recv(p, 0, 0)
		return err
	})

	overlapped := testWorld(2)
	runWorld(overlapped, func(p *Proc) error {
		if p.Rank() == 0 {
			req, err := overlapped.CommWorld().IsendSized(p, 1, 0, make([]byte, size), size)
			if err != nil {
				return err
			}
			p.ComputeExact(1e7) // compute while the transfer proceeds
			_, err = req.Wait()
			return err
		}
		_, err := overlapped.CommWorld().Recv(p, 0, 0)
		return err
	})

	tb := blocking.Proc(0).Now()
	to := overlapped.Proc(0).Now()
	if to >= tb {
		t.Fatalf("overlapped sender (%v) not faster than blocking (%v)", to, tb)
	}
	// The overlapped sender's MPI time is just post+settle overhead.
	if mpiT := overlapped.Proc(0).Recorder().Get(trace.AppMPI); mpiT > 1e-4 {
		t.Fatalf("overlapped sender charged %v MPI time", mpiT)
	}
}

func TestIrecvFromDeadRankFails(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Exit()
		}
		req, err := c.Irecv(p, 1, 0)
		if err != nil {
			return err
		}
		_, err = req.Wait()
		return err
	})
	if !IsProcessFailure(errs[0]) {
		t.Fatalf("err = %v", errs[0])
	}
}

func TestIsendToDeadRankFails(t *testing.T) {
	// IsendSized fails fast only once the sender has itself observed the
	// destination's death (here via a failed Recv), like Send.
	w := testWorld(2)
	c := w.CommWorld()
	errs := runWorld(w, func(p *Proc) error {
		if p.Rank() == 1 {
			p.Exit()
		}
		if _, err := c.Recv(p, 1, 0); !IsProcessFailure(err) {
			t.Errorf("recv from dead rank: %v", err)
		}
		_, err := c.IsendSized(p, 1, 0, []byte{1}, 1)
		return err
	})
	if !IsProcessFailure(errs[0]) {
		t.Fatalf("err = %v", errs[0])
	}
}

func TestRequestDoubleWait(t *testing.T) {
	w := testWorld(2)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			req, err := c.IsendSized(p, 1, 0, []byte{1}, 1)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if _, err := req.Wait(); err == nil {
				t.Error("second Wait succeeded")
			}
			return nil
		}
		_, err := c.Recv(p, 0, 0)
		return err
	})
}

func TestWaitAll(t *testing.T) {
	w := testWorld(3)
	c := w.CommWorld()
	runWorld(w, func(p *Proc) error {
		if p.Rank() == 0 {
			var reqs []*Request
			for dst := 1; dst <= 2; dst++ {
				r, err := c.IsendSized(p, dst, 0, []byte{byte(dst)}, 1)
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			_, err := WaitAll(reqs)
			return err
		}
		r, err := c.Irecv(p, 0, 0)
		if err != nil {
			return err
		}
		out, err := WaitAll([]*Request{r})
		if err != nil {
			return err
		}
		if out[0][0] != byte(p.Rank()) {
			t.Errorf("rank %d got %v", p.Rank(), out[0])
		}
		return nil
	})
}
