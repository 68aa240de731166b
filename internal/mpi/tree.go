// Binomial-tree collective engine.
//
// A collective rendezvous must decide, for every member of the
// communicator, how that member is accounted for — arrived, dead, or (for
// regular collectives) departed — and complete once every member has a
// terminal state. The engine records each member's first terminal event
// in a per-op slot and propagates *completion* up a binomial tree over
// comm ranks: each tree node holds a counter of unaccounted members in its
// subtree, a member's terminal event decrements the counters on its root
// path until one stays positive, and a subtree that empties sends exactly
// one completion edge to its parent. Total accounting work per collective
// is O(P) counter decrements + O(P) tree edges (each edge fires once),
// with an O(log P) worst-case walk per event — the execution-model
// analogue of the log-P collective topology the cost model already
// charges for. No event rescans the group, so a world-sized collective
// never costs O(P²) work under the world lock.
//
// Op state (slots, counters, aggregate scalars) is pooled and reused
// across collectives (sync.Pool with a reference count: one reference per
// arrived member, released after the member extracts its results), so the
// steady-state allocation cost of a collective does not grow with the
// number of collectives already run: a steady-state collective allocates
// no op state at all.
//
// Determinism: every slot is written under world.mu from the terminal
// event's own goroutine — an arrival from the arriving rank, a death from
// the dying rank (markDead), a departure from the departing rank
// (Comm.fail/Revoke) — so each member's terminal state is a function of
// that member's own program order and virtual clock, never of the
// wall-clock order in which unrelated goroutines observed it. The first
// terminal event per member wins; in particular a member that departs a
// communicator and later dies is accounted as departed, by its own program
// order. testdata/engine_scenario_{8,64}.golden pins the resulting
// transcripts, clocks and event streams (engine_equiv_test.go).
package mpi

import (
	"repro/internal/obs"
)

// treeParent returns the binomial-tree parent of comm rank r: r with its
// lowest set bit cleared. Rank 0 is the root.
func treeParent(r int) int { return r & (r - 1) }

// treeChildCount returns the number of direct children of comm rank r in a
// binomial tree over p ranks. The children of r are r|1<<k for every k
// below r's lowest set bit (every k for the root) with r|1<<k < p.
func treeChildCount(r, p int) int {
	n := 0
	for k := uint(0); ; k++ {
		bit := 1 << k
		if r != 0 && bit >= r&-r {
			break
		}
		if r|bit >= p {
			break
		}
		n++
	}
	return n
}

// buildTreeInit returns the initial per-node pending counters for a
// binomial tree over p ranks: 1 (the node's own member) plus one per
// direct child subtree.
func buildTreeInit(p int) []int32 {
	init := make([]int32, p)
	for r := 0; r < p; r++ {
		init[r] = int32(1 + treeChildCount(r, p))
	}
	return init
}

// acquireOpLocked takes a rendezvous from the world's pool (or allocates
// one) and resets it for a new collective on c. Caller holds world.mu.
func (w *World) acquireOpLocked(c *Comm, tolerant bool, key collKey) *rendezvous {
	var r *rendezvous
	if v := w.opPool.Get(); v != nil {
		r = v.(*rendezvous)
	} else {
		r = &rendezvous{}
	}
	n := len(c.group)
	if cap(r.slots) < n {
		r.slots = make([]slot, n)
		r.treeLeft = make([]int32, n)
	} else {
		r.slots = r.slots[:n]
		r.treeLeft = r.treeLeft[:n]
		for i := range r.slots {
			r.slots[i] = slot{}
		}
	}
	copy(r.treeLeft, c.treeLeft0)
	r.comm, r.tolerant, r.key = c, tolerant, key
	r.waiters = r.waiters[:0]
	r.refs.Store(0)
	r.nArrived, r.nDead, r.nDeparted = 0, 0, 0
	r.maxClock, r.maxDeadAt, r.departStamp = 0, 0, 0
	r.maxBytes = 0
	r.completed, r.err, r.syncTime = false, nil, 0
	r.deadAtEnd = r.deadAtEnd[:0]
	r.result = nil
	r.loggable, r.replayed = false, false
	r.reduced, r.reduceErr, r.reducedOK = r.reduced[:0], nil, false
	return r
}

// releaseOp clears payload references and returns the rendezvous to the
// pool. Called by the last member to release its reference; at that point
// no goroutine can reach r (completion removed it from w.colls before
// waking the waiters).
func (w *World) releaseOp(r *rendezvous) {
	for i := range r.slots {
		w.recyclePayload(&r.slots[i].pl)
		r.slots[i] = slot{}
	}
	r.comm = nil
	r.err = nil
	r.result = nil
	r.reduceErr = nil
	w.opPool.Put(r)
}

// release drops one member's reference to the rendezvous; the last release
// returns the op state to the pool. Each arrived member must call it
// exactly once, after extracting everything it needs. References are taken
// under world.mu at registration; by the time any member can release (the
// op completed), no further references are taken, so the atomic decrement
// alone decides the last reader.
func (r *rendezvous) release(w *World) {
	if r.replayed {
		// Synthetic log-served op: its slots are owned by the message log
		// and it was never pooled — recycling would poison the log.
		return
	}
	if r.refs.Add(-1) == 0 {
		w.releaseOp(r)
	}
}

// seedTerminalLocked accounts members that already hold a terminal state
// when the op is created: dead members, and — for regular collectives —
// members that have departed the communicator. Later deaths/departures
// arrive as events through markDead/departLocked. Departure is checked
// before death: a member can only depart while alive, so for a member that
// did both, the departure came first in its program order — seeding must
// classify it the same way the event path would have, or the member's
// state would depend on whether the op was created before or after the
// death in wall-clock time. Caller holds world.mu.
func (w *World) seedTerminalLocked(r *rendezvous) {
	c := r.comm
	for cr, wr := range c.group {
		if !r.tolerant {
			if t, ok := c.departed[wr]; ok {
				w.accountDepartedLocked(r, cr, t)
				continue
			}
		}
		if w.dead[wr] {
			w.accountDeadLocked(r, cr, w.deadAt[wr])
		}
	}
}

// accountArrivalLocked records comm rank cr's arrival and propagates it up
// the tree. Caller holds world.mu.
func (w *World) accountArrivalLocked(r *rendezvous, cr int, clock float64, pl payload, bytes int) {
	s := &r.slots[cr]
	if s.state != memberPending {
		return
	}
	s.state, s.clock, s.pl, s.bytes = memberArrived, clock, pl, bytes
	r.nArrived++
	if clock > r.maxClock {
		r.maxClock = clock
	}
	if bytes > r.maxBytes {
		r.maxBytes = bytes
	}
	w.propagateLocked(r, cr)
}

// accountDeadLocked records comm rank cr's death (stamped with the dying
// rank's own virtual clock) if cr has no terminal state yet. Caller holds
// world.mu.
func (w *World) accountDeadLocked(r *rendezvous, cr int, deadAt float64) {
	s := &r.slots[cr]
	if s.state != memberPending {
		return
	}
	s.state, s.stamp = memberDead, deadAt
	r.nDead++
	if deadAt > r.maxDeadAt {
		r.maxDeadAt = deadAt
	}
	w.propagateLocked(r, cr)
}

// accountDepartedLocked records comm rank cr's departure from the
// communicator (non-tolerant ops only: Shrink/Agree ignore departures).
// Caller holds world.mu.
func (w *World) accountDepartedLocked(r *rendezvous, cr int, stamp float64) {
	s := &r.slots[cr]
	if s.state != memberPending {
		return
	}
	s.state, s.stamp = memberDeparted, stamp
	r.nDeparted++
	if stamp > r.departStamp {
		r.departStamp = stamp
	}
	w.propagateLocked(r, cr)
}

// propagateLocked walks cr's terminal event up the binomial tree: the
// counters on the root path are decremented until one stays positive; a
// subtree that empties fires exactly one completion edge to its parent,
// and an empty root completes the rendezvous. Caller holds world.mu.
func (w *World) propagateLocked(r *rendezvous, cr int) {
	for i := cr; ; {
		r.treeLeft[i]--
		if r.treeLeft[i] > 0 {
			return
		}
		if i == 0 {
			w.completeTreeLocked(r)
			return
		}
		i = treeParent(i)
	}
}

// completeTreeLocked publishes the rendezvous outcome from the aggregate
// scalars maintained during accounting. It runs exactly once per op (when
// the tree root empties). Its O(P) slot scans are the congestion probe
// (congestedLocked) and, after failures, listing dead members. Caller
// holds world.mu.
func (w *World) completeTreeLocked(r *rendezvous) {
	if r.completed {
		return
	}
	alive := len(r.slots) - r.nDead
	if r.nDead > 0 {
		for cr := range r.slots {
			if r.slots[cr].state == memberDead {
				r.deadAtEnd = append(r.deadAtEnd, r.comm.group[cr])
			}
		}
	}
	if !r.tolerant {
		if r.nDead > 0 {
			r.err = newFailedError(r.deadAtEnd)
		} else if r.nDeparted > 0 {
			r.err = ErrRevoked
		}
	}
	cost := w.machine.CollectiveTime(alive, r.maxBytes)
	if w.congestedLocked(r) {
		// The whole rendezvous is slowed by one congested member; credit
		// the inflation to the MPI-visible flush wait counter.
		w.obs.Registry().Counter(obs.MFlushWaitSeconds).Add(cost * (w.machine.CongestionFactor - 1))
		cost *= w.machine.CongestionFactor
	}
	end := r.maxClock + cost
	if r.nDead > 0 {
		// Failures only become observable after the detector fires.
		if floor := r.maxDeadAt + w.machine.FailureDetectionLatency; floor > end {
			end = floor
		}
	}
	if r.departStamp > end {
		end = r.departStamp
	}
	delete(w.colls, r.key)
	r.finishLocked(w, end)
}
