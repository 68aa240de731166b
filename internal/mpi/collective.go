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
	// memberDeparted: the member departed the communicator before arriving
	// (regular collectives only; Shrink/Agree ignore departures).
	memberDeparted
)

// payload carries one member's collective contribution into its slot.
// It is a struct of typed fields rather than an `any`: boxing a slice
// header into an interface costs one heap allocation per arrival on the
// hot path ([]float64 reductions, []byte broadcasts), and it would defeat
// buffer recycling entirely. At most one field family is meaningful per
// collective kind; a/k pack the scalar contributions (Agree's flag,
// Split's color and key).
type payload struct {
	f64 []float64
	b   []byte
	bb  [][]byte
	a   int64 // Agree flag / Split color
	k   int64 // Split key
	has bool  // a contribution is present (rooted ops: only root carries data)
}

// slot records one member's terminal state, indexed by comm rank. The
// first terminal event per member wins; slots are only written under
// world.mu, from the goroutine that owns the event (the arriving, dying,
// or departing rank), which anchors every outcome in that rank's own
// program order and virtual clock.
type slot struct {
	state memberState
	clock float64 // arrival time (memberArrived)
	stamp float64 // death time (memberDead) or departure stamp (memberDeparted)
	bytes int
	pl    payload
}

// rendezvous synchronizes one collective. Members register terminal states
// under world.mu; the rendezvous completes when every member is accounted
// for. Completion publishes the synchronized clock time, any error, and
// the frozen set of dead members, then wakes the parked members. The
// struct is pooled: see acquireOpLocked / release in tree.go.
type rendezvous struct {
	comm     *Comm
	tolerant bool // Shrink/Agree: dead members do not poison the result
	key      collKey
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
	deadAtEnd []int // world ranks dead at completion, in comm rank order
	result    any   // memoized collective result (e.g. the shrunk comm)

	// loggable marks a non-tolerant op on the registered resilient lineage:
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
// completed rendezvous. pl is this process's contribution; bytes is its
// wire size for the cost model. On success the caller owns one reference
// on the returned rendezvous and must release it (r.release) after
// extracting its results; on error the reference has already been
// released.
func (c *Comm) collective(p *Proc, tolerant bool, pl payload, bytes int) (*rendezvous, error) {
	return c.collectiveLog(p, tolerant, true, pl, bytes)
}

// collectiveLog is collective with an explicit message-log opt-out. Split
// passes logOK=false: its memoized result is a communicator, which cannot
// be replayed from logged bytes (and no lineage workload splits
// per-iteration).
func (c *Comm) collectiveLog(p *Proc, tolerant, logOK bool, pl payload, bytes int) (*rendezvous, error) {
	p.Inject("mpi.collective")
	commRank := c.checkMember(p, "collective")
	var l *MsgLog
	if !tolerant && logOK {
		l = p.msglogOn(c)
	}
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
	// Tolerant collectives (Shrink/Agree) use a separate sequence space:
	// after a failure, survivors reach them having executed different
	// numbers of regular collectives, so they cannot share the counter.
	seqSpace := c.id
	if tolerant {
		seqSpace = -c.id
	}
	seq := p.nextSeq(seqSpace)
	key := collKey{comm: seqSpace, seq: seq}
	start := p.clock.Now()

	w := c.world
	w.mu.Lock()
	if !tolerant {
		// A process that has itself departed the communicator (its last
		// MPI error, or its own Revoke) fails fast; whether *other*
		// members departed is resolved by the rendezvous, deterministically.
		if _, gone := c.departed[p.rank]; gone {
			w.mu.Unlock()
			return nil, p.failMPI(ErrRevoked)
		}
	}
	r, ok := w.colls[key]
	if !ok {
		r = w.acquireOpLocked(c, tolerant, key)
		r.loggable = l != nil
		w.colls[key] = r
		w.seedTerminalLocked(r)
	}
	if r.tolerant != tolerant {
		w.mu.Unlock()
		panic(fmt.Sprintf("mpi: mismatched collective kinds on comm %d seq %d", c.id, seq))
	}
	r.refs.Add(1)
	w.accountArrivalLocked(r, commRank, start, pl, bytes)
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
		if len(s.pl.f64) > 0 {
			cp := make([]float64, len(s.pl.f64))
			copy(cp, s.pl.f64)
			s.pl.f64 = cp
			bytes += 8 * len(cp)
		}
		if len(s.pl.b) > 0 {
			cp := make([]byte, len(s.pl.b))
			copy(cp, s.pl.b)
			s.pl.b = cp
			bytes += len(cp)
		}
		if len(s.pl.bb) > 0 {
			cpp := make([][]byte, len(s.pl.bb))
			for j, b := range s.pl.bb {
				cb := make([]byte, len(b))
				copy(cb, b)
				cpp[j] = cb
				bytes += len(cb)
			}
			s.pl.bb = cpp
		}
		out[i] = s
	}
	return out, bytes
}

// Barrier blocks until all live members arrive. It fails with FailedError
// if any member has died.
func (c *Comm) Barrier(p *Proc) error {
	r, err := c.collective(p, false, payload{}, 0)
	if err != nil {
		return err
	}
	r.release(c.world)
	return nil
}

// Bcast distributes root's buffer to every member and returns each
// process's copy. Non-root callers pass nil (or their stale buffer, which
// is ignored).
func (c *Comm) Bcast(p *Proc, root int, data []byte) ([]byte, error) {
	var pl payload
	bytes := 0
	if c.Rank(p) == root {
		cp := c.world.payloadB(len(data))
		copy(cp, data)
		pl = payload{b: cp, has: true}
		bytes = len(data)
	}
	r, err := c.collective(p, false, pl, bytes)
	if err != nil {
		return nil, err
	}
	defer r.release(c.world)
	s := &r.slots[root]
	if s.state != memberArrived || !s.pl.has {
		return nil, c.fail(p, newFailedError([]int{c.WorldRank(root)}))
	}
	src := s.pl.b
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// ReduceOp is a reduction operator for Allreduce/Reduce.
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
// arrived payloads exactly once and returns a fresh copy per caller.
// Reduction is in comm rank order regardless of arrival order, so
// results are bitwise reproducible; memoization turns P members' O(P·n)
// passes into one.
func (c *Comm) reduceShared(r *rendezvous, op ReduceOp, n int) ([]float64, error) {
	w := c.world
	w.mu.Lock()
	if !r.reducedOK {
		r.reducedOK = true
		var out []float64
		if cap(r.reduced) >= n {
			out = r.reduced[:n]
		} else {
			out = make([]float64, n)
		}
		first := true
		for i := range r.slots {
			s := &r.slots[i]
			if s.state != memberArrived {
				continue
			}
			vec := s.pl.f64
			if len(vec) != n {
				r.reduceErr = fmt.Errorf("mpi: reduce length mismatch: %d vs %d", len(vec), n)
				break
			}
			if first {
				copy(out, vec)
				first = false
				continue
			}
			for j, v := range vec {
				out[j] = op.apply(out[j], v)
			}
		}
		r.reduced = out
	}
	res, err := r.reduced, r.reduceErr
	w.mu.Unlock()
	if err != nil {
		return nil, err
	}
	cp := make([]float64, n)
	copy(cp, res)
	return cp, nil
}

// AllreduceF64 reduces data element-wise across all members with op and
// returns the result at every member. Reduction order is deterministic
// (comm rank order), so results are bitwise reproducible.
func (c *Comm) AllreduceF64(p *Proc, data []float64, op ReduceOp) ([]float64, error) {
	cp := c.world.payloadF64(len(data))
	copy(cp, data)
	r, err := c.collective(p, false, payload{f64: cp, has: true}, 8*len(data))
	if err != nil {
		return nil, err
	}
	defer r.release(c.world)
	return c.reduceShared(r, op, len(data))
}

// ReduceF64 reduces to root; non-root members receive nil.
func (c *Comm) ReduceF64(p *Proc, root int, data []float64, op ReduceOp) ([]float64, error) {
	cp := c.world.payloadF64(len(data))
	copy(cp, data)
	r, err := c.collective(p, false, payload{f64: cp, has: true}, 8*len(data))
	if err != nil {
		return nil, err
	}
	defer r.release(c.world)
	if c.Rank(p) != root {
		return nil, nil
	}
	return c.reduceShared(r, op, len(data))
}

// AllreduceInt reduces a single integer across members (exact for values up
// to 2^53).
func (c *Comm) AllreduceInt(p *Proc, v int, op ReduceOp) (int, error) {
	out, err := c.AllreduceF64(p, []float64{float64(v)}, op)
	if err != nil {
		return 0, err
	}
	return int(out[0]), nil
}

// AllgatherB gathers each member's byte payload at every member, indexed by
// comm rank.
func (c *Comm) AllgatherB(p *Proc, data []byte) ([][]byte, error) {
	cp := c.world.payloadB(len(data))
	copy(cp, data)
	r, err := c.collective(p, false, payload{b: cp, has: true}, len(data))
	if err != nil {
		return nil, err
	}
	defer r.release(c.world)
	out := make([][]byte, len(c.group))
	for cr := range r.slots {
		s := &r.slots[cr]
		if s.state != memberArrived {
			continue
		}
		src := s.pl.b
		buf := make([]byte, len(src))
		copy(buf, src)
		out[cr] = buf
	}
	return out, nil
}

// Shrink creates a new communicator containing the surviving members,
// densely re-ranked in old comm rank order (ULFM MPI_Comm_shrink). It is
// fault-tolerant: it succeeds even when members have failed, and all
// survivors agree on the membership of the result.
func (c *Comm) Shrink(p *Proc) (*Comm, error) {
	r, err := c.collective(p, true, payload{}, 0)
	if err != nil {
		return nil, err
	}
	w := c.world
	w.mu.Lock()
	if r.result == nil {
		deadSet := make(map[int]bool, len(r.deadAtEnd))
		for _, wr := range r.deadAtEnd {
			deadSet[wr] = true
		}
		var survivors []int
		for _, wr := range c.group {
			if !deadSet[wr] {
				survivors = append(survivors, wr)
			}
		}
		r.result = w.newCommLocked(survivors)
	}
	shrunk := r.result.(*Comm)
	w.mu.Unlock()
	r.release(w)
	// Emitted by every participant (rank attribute distinguishes them).
	p.Event(obs.LayerMPI, obs.EvShrink,
		obs.KV("comm", c.id), obs.KV("from_size", len(c.group)), obs.KV("to_size", shrunk.Size()))
	p.world.obs.Registry().Counter(obs.MShrinks).Inc()
	return shrunk, nil
}

// Agree performs a fault-tolerant agreement on the bitwise AND of flag
// across surviving members (ULFM MPI_Comm_agree). All survivors receive the
// same value and the same view of acknowledged failures.
func (c *Comm) Agree(p *Proc, flag uint32) (uint32, error) {
	r, err := c.collective(p, true, payload{a: int64(flag), has: true}, 4)
	if err != nil {
		return 0, err
	}
	out := ^uint32(0)
	for cr := range r.slots {
		s := &r.slots[cr]
		if s.state == memberArrived {
			out &= uint32(s.pl.a)
		}
	}
	participants, failed := r.nArrived, len(r.deadAtEnd)
	r.release(c.world)
	p.Event(obs.LayerMPI, obs.EvAgree,
		obs.KV("comm", c.id), obs.KV("participants", participants), obs.KV("failed", failed))
	p.world.obs.Registry().Counter(obs.MAgreements).Inc()
	return out, nil
}
