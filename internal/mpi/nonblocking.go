package mpi

import (
	"errors"

	"repro/internal/trace"
)

// This file adds nonblocking point-to-point operations (MPI_Isend /
// MPI_Irecv / MPI_Wait). In the virtual-time model a nonblocking send
// posts the message immediately and records the time at which the NIC
// would be done with it; Wait only charges the portion of that transfer
// not already hidden behind subsequent computation — reproducing
// communication/computation overlap.

// Request is a pending nonblocking operation handle.
type Request struct {
	p    *Proc
	comm *Comm

	// send-side
	isSend     bool
	completeAt float64

	// recv-side: the stream (comm ranks and tag), and whether it was
	// logged at post time; Wait consults the sender-based log only then.
	lkey   p2pKey
	logged bool

	done bool
}

var errRequestReused = errors.New("mpi: Wait called twice on the same request")

// IsendSized posts a buffered nonblocking send to comm rank dst, with the
// cost model charged for simBytes. The message becomes available to the
// receiver after the full transfer time, but the sender is free after the
// post latency; Wait settles any un-hidden transfer cost. Like Send, it is
// locally complete and fails fast only on the sender's own knowledge of
// the destination's death or of its own departure from the communicator
// (see Comm.Send).
func (c *Comm) IsendSized(p *Proc, dst, tag int, data []byte, simBytes int) (*Request, error) {
	arrive, err := c.post(p, "IsendSized", dst, tag, data, simBytes, false)
	if err != nil {
		return nil, err
	}
	return &Request{p: p, comm: c, isSend: true, completeAt: arrive}, nil
}

// Irecv posts a nonblocking receive for a message from comm rank src with
// the given tag. The data is produced by Wait.
func (c *Comm) Irecv(p *Proc, src, tag int) (*Request, error) {
	me := c.checkMember(p, "Irecv")
	c.WorldRank(src) // an out-of-range src panics at the post, not at Wait
	return &Request{
		p:      p,
		comm:   c,
		lkey:   p2pKey{src: src, dst: me, tag: tag},
		logged: p.msglogOn(c) != nil,
	}, nil
}

// Wait completes the request: for sends it settles any transfer time not
// hidden behind computation executed since the post; for receives it
// blocks until the message arrives and returns the payload.
func (r *Request) Wait() ([]byte, error) {
	if r.done {
		return nil, errRequestReused
	}
	r.done = true
	p := r.p

	if r.isSend {
		waited := p.clock.AdvanceTo(r.completeAt)
		p.rec.Add(trace.AppMPI, waited)
		return nil, nil
	}
	var l *MsgLog
	if r.logged {
		l = p.msglogOn(r.comm)
	}
	return r.comm.complete(p, l, r.lkey, false)
}

// WaitAll completes all requests in order and returns the first error.
// Received payloads are returned positionally (nil for sends).
func WaitAll(reqs []*Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	var firstErr error
	for i, r := range reqs {
		data, err := r.Wait()
		out[i] = data
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}
