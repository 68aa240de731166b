package mpi

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/trace"
)

// collKey identifies one collective operation instance: all members of a
// communicator call collectives in the same order, so (comm id, sequence
// number) names a unique rendezvous.
type collKey struct {
	comm int64
	seq  int64
}

// memberState is one member's terminal state within a rendezvous.
type memberState uint8

const (
	// memberPending: no terminal event yet.
	memberPending memberState = iota
	// memberArrived: the member entered the collective.
	memberArrived
	// memberDead: the member died before arriving.
	memberDead
	// memberDeparted: the member departed the communicator before arriving.
	memberDeparted
)

// slot records one member's terminal state, indexed by comm rank. The
// first terminal event per member wins; slots are only written under
// world.mu, from the goroutine that owns the event (the arriving, dying,
// or departing rank), which anchors every outcome in that rank's own
// program order and virtual clock.
type slot struct {
	state memberState
	clock float64 // arrival time (memberArrived)
	// data is the member's contribution (nil for Barrier). It is taken
	// from the world's buffer freelist and recycled by releaseOp.
	data []float64
}

// rendezvous synchronizes one collective. Members register terminal states
// under world.mu; the rendezvous completes when every member is accounted
// for. Completion publishes the synchronized clock time and any error,
// then wakes the parked members. The struct is pooled: see
// acquireOpLocked / release in tree.go.
type rendezvous struct {
	comm *Comm
	key  collKey
	// waiters holds the members parked on this op, registered under
	// world.mu by the arriving rank itself. The rank whose event completed
	// the op wakes them (wakeWaiters).
	waiters []*Proc

	// slots and treeLeft are indexed by comm rank; treeLeft holds the
	// binomial tree's per-node pending counters.
	slots    []slot
	treeLeft []int32

	// Aggregate scalars maintained incrementally as terminal events land,
	// so completion scans the group only for the congestion probe
	// (congestedLocked) and to list dead members.
	nArrived    int
	nDead       int
	nDeparted   int
	maxClock    float64 // latest arrival clock
	maxDeadAt   float64 // latest death stamp among dead members
	departStamp float64 // latest departure stamp among departed members
	maxBytes    int

	// refs counts arrived members that have not yet released the op back
	// to the pool (one reference per arrival).
	refs atomic.Int32

	completed bool
	err       error
	syncTime  float64

	// loggable marks an op on the registered resilient lineage:
	// finishLocked appends its result slots to the message log on success.
	loggable bool
	// replayed marks a synthetic rendezvous served from the message log:
	// its slots are owned by the log, so release is a no-op (never pooled).
	replayed bool

	// reduced memoizes the shared element-wise reduction so P members cost
	// one O(P·n) pass instead of P of them. Guarded by world.mu.
	reduced   []float64
	reduceErr error
	reducedOK bool
}

func (r *rendezvous) hasMember(worldRank int) bool {
	_, ok := r.comm.index[worldRank]
	return ok
}

// finishLocked publishes completion. Caller holds world.mu, and must then
// wake the op's waiters (wakeWaiters); the resume send is the
// happens-before edge that publishes syncTime, err, and the frozen slots
// to them.
func (r *rendezvous) finishLocked(w *World, syncTime float64) {
	if r.completed {
		return
	}
	r.completed = true
	r.syncTime = syncTime
	if r.loggable && r.err == nil && w.msglog.Active() {
		// Log the completed lineage collective for replay. Completion order
		// equals program order (a collective completes only when every
		// member arrived, and members arrive in program order), so the log
		// is the lineage's successful-collective sequence. Slots are
		// deep-copied: the op and its payload buffers are pooled.
		slots, bytes := cloneSlotsForLog(r.slots)
		w.msglog.AppendColl(slots, r.nArrived, bytes)
		w.obs.Emit(syncTime, -1, obs.LayerMPI, obs.EvMsgLogged,
			obs.KV("kind", "coll"), obs.KV("comm", r.comm.id), obs.KV("bytes", bytes))
		w.obs.Registry().Counter(obs.MMsgLogged).Inc()
	}
}

// wakeWaiters hands every member parked on the completed op to the rank
// scheduler. Completion deregistered them under world.mu: the op is out
// of w.colls, so no other rank can reach the list. A death or departure
// that completed the op wakes them under world.mu; an arrival that did
// wakes them right after unlocking, so they do not queue on the lock it
// still holds, and its own reference keeps the op from being recycled
// while it walks the list.
func (r *rendezvous) wakeWaiters(w *World) {
	w.pool.wakeAll(r.waiters)
	clear(r.waiters)
	r.waiters = r.waiters[:0]
}

// congestedLocked reports whether any arrived member's node had a flush
// in flight at that member's arrival time. It probes at completion, not
// at arrival: by now every member has arrived, so every flush a node-mate
// submitted before its own arrival is queued on the shared node whatever
// the wall-clock interleaving. Every member is probed, in comm rank order,
// so each node's flush scheduler is advanced to each of its members'
// arrival clocks as the arrival-time probe did. Caller holds world.mu; the
// node lock nests inside it and the scheduler's callbacks only touch
// observability.
func (w *World) congestedLocked(r *rendezvous) bool {
	congested := false
	for cr := range r.slots {
		s := &r.slots[cr]
		if s.state == memberArrived && w.procs[r.comm.group[cr]].node.CongestedAt(s.clock) {
			congested = true
		}
	}
	return congested
}

// collective runs one rendezvous for the calling process and returns the
// completed rendezvous. data is this process's contribution (nil for
// Barrier); bytes is its wire size for the cost model. On success the
// caller owns one reference on the returned rendezvous and must release
// it (r.release) after extracting its results; on error the reference
// has already been released.
func (c *Comm) collective(p *Proc, data []float64, bytes int) (*rendezvous, error) {
	p.Inject("mpi.collective")
	commRank := c.checkMember(p, "collective")
	l := p.msglogOn(c)
	if l != nil {
		if e, ok := l.collAt(p.logColl); ok {
			// Served from the log: this collective completed in the epoch
			// being replayed, so its logged result slots are returned at
			// zero rendezvous cost — peers paused in place (or replaying
			// themselves) never need to arrive again. The cursor advances
			// without consuming a live sequence number: all members reach
			// the first never-completed collective with cursor == lineage
			// length and enter it live with aligned sequence numbers.
			p.logColl++
			p.Event(obs.LayerMPI, obs.EvMsgReplayed, obs.KV("kind", "coll"), obs.KV("comm", c.id))
			p.world.obs.Registry().Counter(obs.MMsgReplayed).Inc()
			fake := &rendezvous{comm: c, completed: true, syncTime: p.clock.Now(), replayed: true}
			fake.slots = e.slots
			fake.nArrived = e.nArrived
			fake.refs.Store(1)
			return fake, nil
		}
	}
	key := collKey{comm: c.id, seq: p.nextSeq(c.id)}
	start := p.clock.Now()

	w := c.world
	w.mu.Lock()
	// A process that has itself departed the communicator (its last MPI
	// error, or its own Revoke) fails fast; whether *other* members
	// departed is resolved by the rendezvous, deterministically.
	if _, gone := c.departed[p.rank]; gone {
		w.mu.Unlock()
		return nil, p.failMPI(ErrRevoked)
	}
	r, ok := w.colls[key]
	if !ok {
		r = w.acquireOpLocked(c, key)
		r.loggable = l != nil
		w.colls[key] = r
		w.seedTerminalLocked(r)
	}
	r.refs.Add(1)
	w.accountArrivalLocked(r, commRank, start, data, bytes)
	// If this arrival completed the op, wake the waiters. Otherwise register
	// as one under the same critical section as the arrival — the op cannot
	// complete between the accounting above and the append, so no wake-up
	// can be lost.
	if r.completed {
		w.mu.Unlock()
		r.wakeWaiters(w)
	} else {
		r.waiters = append(r.waiters, p)
		w.mu.Unlock()
		p.Park()
	}

	p.clock.AdvanceTo(r.syncTime)
	p.rec.Add(trace.AppMPI, p.clock.Now()-start)
	if r.err != nil {
		err := c.fail(p, r.err)
		r.release(w)
		return nil, err
	}
	if l != nil {
		// This member completed one more logged lineage collective.
		p.logColl++
	}
	return r, nil
}

// cloneSlotsForLog deep-copies a completed rendezvous' slots for the
// message log (the originals and their payload buffers are pooled).
// Returns the copies and the total payload bytes held.
func cloneSlotsForLog(slots []slot) ([]slot, int) {
	out := make([]slot, len(slots))
	bytes := 0
	for i := range slots {
		s := slots[i]
		if len(s.data) > 0 {
			s.data = append([]float64(nil), s.data...)
			bytes += 8 * len(s.data)
		}
		out[i] = s
	}
	return out, bytes
}

// Barrier blocks until all live members arrive. It fails with FailedError
// if any member has died.
func (c *Comm) Barrier(p *Proc) error {
	r, err := c.collective(p, nil, 0)
	if err != nil {
		return err
	}
	r.release(c.world)
	return nil
}

// ReduceOp is a reduction operator for the allreduce collectives.
type ReduceOp int

const (
	// OpSum adds contributions element-wise.
	OpSum ReduceOp = iota
	// OpMin takes the element-wise minimum.
	OpMin
	// OpMax takes the element-wise maximum.
	OpMax
)

// String names the reduction operator (for logs and error messages).
func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("ReduceOp(%d)", int(op))
}

func (op ReduceOp) apply(acc, v float64) float64 {
	switch op {
	case OpSum:
		return acc + v
	case OpMin:
		return math.Min(acc, v)
	case OpMax:
		return math.Max(acc, v)
	}
	panic("mpi: unknown reduce op")
}

// reduceShared computes the element-wise reduction over the rendezvous'
// arrived payloads exactly once and copies it into each caller's out.
// Reduction is in comm rank order regardless of arrival order, so
// results are bitwise reproducible; memoization turns P members' O(P·n)
// passes into one.
func (c *Comm) reduceShared(r *rendezvous, op ReduceOp, out []float64) error {
	n := len(out)
	w := c.world
	w.mu.Lock()
	if !r.reducedOK {
		r.reducedOK = true
		var acc []float64
		if cap(r.reduced) >= n {
			acc = r.reduced[:n]
		} else {
			acc = make([]float64, n)
		}
		first := true
		for i := range r.slots {
			s := &r.slots[i]
			if s.state != memberArrived {
				continue
			}
			vec := s.data
			if len(vec) != n {
				r.reduceErr = fmt.Errorf("mpi: reduce length mismatch: %d vs %d", len(vec), n)
				break
			}
			if first {
				copy(acc, vec)
				first = false
				continue
			}
			for j, v := range vec {
				acc[j] = op.apply(acc[j], v)
			}
		}
		r.reduced = acc
	}
	res, err := r.reduced, r.reduceErr
	w.mu.Unlock()
	if err != nil {
		return err
	}
	copy(out, res)
	return nil
}

// AllreduceF64 reduces data element-wise across all members with op and
// writes the result into data, as MPI_IN_PLACE does; it returns data. On
// error data is unchanged. Reduction order is deterministic (comm rank
// order), so results are bitwise reproducible.
func (c *Comm) AllreduceF64(p *Proc, data []float64, op ReduceOp) ([]float64, error) {
	cp := c.world.payloadF64(len(data))
	copy(cp, data)
	r, err := c.collective(p, cp, 8*len(data))
	if err != nil {
		return nil, err
	}
	defer r.release(c.world)
	if err := c.reduceShared(r, op, data); err != nil {
		return nil, err
	}
	return data, nil
}

// AllreduceInt reduces a single integer across members (exact for values up
// to 2^53).
func (c *Comm) AllreduceInt(p *Proc, v int, op ReduceOp) (int, error) {
	buf := [1]float64{float64(v)}
	if _, err := c.AllreduceF64(p, buf[:], op); err != nil {
		return 0, err
	}
	return int(buf[0]), nil
}
