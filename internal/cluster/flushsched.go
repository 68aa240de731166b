// Per-node checkpoint flush scheduling.
//
// Without a policy (FlushPolicy{}), every flush starts the instant it is
// submitted — the classic VeloC server behaviour, in which short checkpoint
// intervals pile up concurrent PFS writes that share the aggregate
// bandwidth and keep the node's congestion window open for the whole run.
//
// With a policy, each node runs a small scheduler over its own flush
// queue:
//
//   - Window bounds the number of concurrently in-flight flushes the node
//     starts; excess requests wait in a queue.
//   - The queue is ordered deadline-aware: the request whose completion
//     gates the earliest next checkpoint commit starts first. Ties are
//     broken by virtual-time-deterministic request fields (enqueue time,
//     owner rank, coalesce key, version) — never by the wall-clock order
//     in which racing rank goroutines reached the scheduler, which is the
//     difference between a replayable schedule and a flaky one (see
//     flushBefore).
//   - Coalesce cancels a queued, not-yet-started flush when a newer
//     version of the same checkpoint (same CoalesceKey) is submitted: the
//     superseded version's bytes never reach the PFS at all.
//
// Scheduling is lazy in virtual time: a queued request's start time is
// computed analytically, and the PFS write is performed ("committed") the
// first time any observer — a congestion query, another submission, or a
// restore path calling Cluster.AdvanceFlushes — advances the node's
// scheduler strictly past that start time. Until then the request remains
// cancellable, which is what makes coalescing possible in a model where
// PFS writes compute their full window eagerly. The strictness matters:
// committing at start == t would hand window slots to whichever of several
// virtually-tied co-resident ranks raced into the scheduler first in
// wall-clock time (see advanceLocked).
package cluster

import (
	"fmt"
	"sort"
)

// FlushPolicy configures the per-node flush scheduler.
type FlushPolicy struct {
	// Window bounds the number of concurrently in-flight flushes per node.
	// Zero (the default) disables scheduling entirely: every flush starts
	// at submission time, unmanaged.
	Window int `json:"window"`
	// Coalesce cancels a queued, not-yet-started flush when a newer
	// version with the same CoalesceKey is submitted.
	Coalesce bool `json:"coalesce,omitempty"`
}

// Enabled reports whether the policy activates the scheduler.
func (p FlushPolicy) Enabled() bool { return p.Window > 0 }

// FlushRequest is one scheduled flush: a scratch entry to copy to the PFS
// on behalf of an owner rank, with the scheduling inputs the policy layer
// (internal/veloc) computed.
type FlushRequest struct {
	// Key is the scratch entry to flush; PFSKey names the PFS object.
	Key    string
	PFSKey string
	// Owner is the world rank whose server performs the write (NoOwner if
	// unattributed); PFS.FailPending invalidates the write if the owner
	// dies mid-window.
	Owner int
	// Deadline orders the queue: earlier deadlines start first. The policy
	// layer sets it to the estimated time of the owner's next checkpoint.
	Deadline float64
	// CoalesceKey groups requests that supersede one another (one
	// checkpoint name + logical rank). Empty disables coalescing for this
	// request.
	CoalesceKey string
	// Version orders requests within a CoalesceKey: a submission cancels
	// queued requests with the same key and Version <= its own.
	Version int
	// Share, when positive, fixes the PFS congestion divisor for this write
	// (the share argument of PFS.write): the number of ranks flushing the same
	// synchronized checkpoint. Zero falls back to the arrival-count model,
	// whose bandwidth shares depend on the real-time order in which racing
	// writers reach the PFS — not replay-deterministic under world-sized
	// flush storms that tie on virtual time.
	Share int
	// OnStart, if non-nil, is invoked — outside all cluster locks — when
	// the flush is committed, with its window [start, end) and the node's
	// flush queue depth (in-flight + queued) at end. It is never invoked
	// for a cancelled request.
	OnStart func(start, end float64, depthAtEnd int)
	// OnCancel, if non-nil, is invoked — outside all cluster locks — when
	// the queued request is dropped without ever starting for any reason
	// other than coalescing (which FlushSubmit reports to the submitter):
	// the node's flush daemon crashed ("crash"), node scratch was lost
	// ("scratch-lost"), or the scratch entry was GC'd while queued
	// ("scratch-gone"). t is the discard's virtual time and depth the
	// node's remaining flush queue depth (in-flight + queued). Exactly one
	// of OnStart/OnCancel fires for every request a scheduler accepted,
	// except requests cancelled by coalescing, which fire neither.
	OnCancel func(t float64, reason string, depth int)
	// OnReorder, if non-nil, is invoked — outside all cluster locks — when
	// this submission supersedes (same CoalesceKey, Version at or above) a
	// flush the node has already committed at a window start at or after
	// `now`. That is the deep virtual-time skew corner of the lazy
	// scheduler: a virtually-later co-resident observer advanced the queue
	// and committed the older version before this virtually-earlier
	// superseding submission arrived, so the superseded bytes reached the
	// PFS even though a faithful virtual-order replay would have coalesced
	// them. The commitment is not undone — PFS writes are final — but the
	// miss is surfaced so the policy layer can account for it
	// (cluster.flush_reorder). Arguments: the submission time, and the
	// committed flush's window start and version.
	OnReorder func(now, committedStart float64, committedVersion int)
}

// flushCommit is the per-CoalesceKey record of the latest committed flush,
// kept for reorder detection.
type flushCommit struct {
	version int
	start   float64
}

// pendingFlush is one queued, not-yet-started flush.
type pendingFlush struct {
	req      FlushRequest
	enqueued float64
	seq      int

	started    bool
	start, end float64
}

// flushBefore is the queue priority: earlier deadline first, then earlier
// (virtual) enqueue time, then owner rank, coalesce key, and version. Every
// component is a pure function of virtual time and request identity, so the
// committed schedule does not depend on the wall-clock order in which
// same-node ranks — each at its own virtual clock — raced into FlushSubmit.
// seq (submission order) remains only as a last resort for requests
// identical in all deterministic fields, which a single rank can only
// produce by submitting the same key twice at one virtual instant.
func flushBefore(a, b *pendingFlush) bool {
	if a.req.Deadline != b.req.Deadline {
		return a.req.Deadline < b.req.Deadline
	}
	if a.enqueued != b.enqueued {
		return a.enqueued < b.enqueued
	}
	if a.req.Owner != b.req.Owner {
		return a.req.Owner < b.req.Owner
	}
	if a.req.CoalesceKey != b.req.CoalesceKey {
		return a.req.CoalesceKey < b.req.CoalesceKey
	}
	if a.req.Version != b.req.Version {
		return a.req.Version < b.req.Version
	}
	return a.seq < b.seq
}

// SetFlushPolicy installs the flush policy on every node.
func (c *Cluster) SetFlushPolicy(p FlushPolicy) {
	for _, n := range c.nodes {
		n.SetFlushPolicy(p)
	}
}

// AdvanceFlushes advances every node's flush scheduler to virtual time t,
// committing queued flushes whose start times have been reached. Restore
// paths call it before reading the PFS so flushes that "have started" by
// the reader's clock are visible.
func (c *Cluster) AdvanceFlushes(t float64) {
	for _, n := range c.nodes {
		n.AdvanceFlushes(t)
	}
}

// SetFlushPolicy installs the node's flush policy. It must be set before
// the job's ranks start issuing checkpoints.
func (n *Node) SetFlushPolicy(p FlushPolicy) {
	n.mu.Lock()
	n.policy = p
	n.mu.Unlock()
}

// FlushPolicy returns the node's flush policy.
func (n *Node) FlushPolicy() FlushPolicy {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.policy
}

// QueuedFlushes returns the number of flushes queued but not yet started.
func (n *Node) QueuedFlushes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

// AdvanceFlushes advances this node's scheduler to virtual time t.
func (n *Node) AdvanceFlushes(t float64) {
	var fire []func()
	n.mu.Lock()
	n.advanceLocked(t, &fire)
	n.mu.Unlock()
	for _, f := range fire {
		f()
	}
}

// CrashFlushes models the node's flush daemon dying at virtual time t:
// queued flushes whose scheduled start had been reached by t are committed
// first — their PFS writes were in flight and fail through PFS.FailPending
// like any interrupted window — and the remainder of the queue is
// discarded, their OnStart callbacks never invoked (OnCancel fires with
// reason "crash" instead, so the policy layer can reconcile its flush
// accounting). Committing before discarding keeps the started/discarded
// split a pure function of virtual time, independent of which rank's
// goroutine last observed the scheduler.
func (n *Node) CrashFlushes(t float64) {
	var fire []func()
	n.mu.Lock()
	n.advanceLocked(t, &fire)
	n.discardPendingLocked(t, "crash", &fire)
	n.mu.Unlock()
	for _, f := range fire {
		f()
	}
}

// discardPendingLocked drops every queued flush, appending their OnCancel
// callbacks (depth = the in-flight count at t; the queue itself is now
// empty) to fire. Caller holds n.mu.
func (n *Node) discardPendingLocked(t float64, reason string, fire *[]func()) {
	depth := n.openAtLocked(t)
	for i, e := range n.pending {
		if cb := e.req.OnCancel; cb != nil {
			at := t
			*fire = append(*fire, func() { cb(at, reason, depth) })
		}
		n.pending[i] = nil
	}
	n.pending = n.pending[:0]
}

// FlushSubmit routes one flush through the node's scheduler. With
// scheduling disabled it behaves exactly like FlushAsyncFor: the flush
// starts at now, and started is true with end its completion time. With
// scheduling enabled the request always joins the queue (started is false)
// and commits at the first observation strictly after its computed start —
// commitment is strictly lazy, so a window slot free at `now` is granted
// by flushBefore priority over every request enqueued by then, not to
// whichever racing submitter reached the scheduler first in wall-clock
// time; the window is reported only through req.OnStart. coalesced counts
// queued requests with the same CoalesceKey and an older-or-equal Version
// that this submission cancelled; their OnStart callbacks are never
// invoked and their bytes never reach the PFS.
func (n *Node) FlushSubmit(req FlushRequest, now float64) (started bool, end float64, coalesced int, err error) {
	if !n.FlushPolicy().Enabled() {
		end, err = n.FlushAsyncFor(req.Key, req.PFSKey, now, req.Owner)
		if err != nil {
			return false, 0, 0, err
		}
		if req.OnStart != nil {
			req.OnStart(now, end, n.InFlightAt(end))
		}
		return true, end, 0, nil
	}

	var fire []func()
	n.mu.Lock()
	if _, ok := n.scratch[req.Key]; !ok {
		n.mu.Unlock()
		return false, 0, 0, fmt.Errorf("cluster: flush of missing scratch key %q on node %d", req.Key, n.id)
	}
	n.advanceLocked(now, &fire)
	if n.policy.Coalesce && req.CoalesceKey != "" {
		kept := n.pending[:0]
		for _, e := range n.pending {
			if e.req.CoalesceKey == req.CoalesceKey && e.req.Version <= req.Version {
				coalesced++
				continue
			}
			kept = append(kept, e)
		}
		for i := len(kept); i < len(n.pending); i++ {
			n.pending[i] = nil
		}
		n.pending = kept
		// Deep-skew reorder detection: commitment is strictly lazy, so any
		// submission at or before a committed window's start would have been
		// queued — and coalesced — before that commit in faithful virtual
		// order. If a superseding version arrives now <= committedStart, a
		// virtually-later observer beat it to the commit. Entries committed
		// by the advance above always have start < now and can never match.
		if cb := req.OnReorder; cb != nil {
			if c, ok := n.lastCommit[req.CoalesceKey]; ok && c.version <= req.Version && now <= c.start {
				at, cs, cv := now, c.start, c.version
				fire = append(fire, func() { cb(at, cs, cv) })
			}
		}
	}
	n.flushSeq++
	entry := &pendingFlush{req: req, enqueued: now, seq: n.flushSeq}
	n.pending = append(n.pending, entry)
	n.advanceLocked(now, &fire)
	started, end = entry.started, entry.end
	n.mu.Unlock()
	for _, f := range fire {
		f()
	}
	return started, end, coalesced, nil
}

// advanceLocked commits every queued flush whose scheduled start has been
// reached by virtual time t, in flushBefore priority order. Committing
// performs the PFS write at the computed start; entries still queued
// afterwards remain cancellable. OnStart callbacks are appended to fire
// for invocation after the node lock is released. Caller holds n.mu.
func (n *Node) advanceLocked(t float64, fire *[]func()) {
	for len(n.pending) > 0 {
		best := 0
		for i, e := range n.pending {
			if flushBefore(e, n.pending[best]) {
				best = i
			}
		}
		e := n.pending[best]
		start := n.nextStartLocked(e.enqueued)
		if start >= t {
			// Strictly-lazy commitment: an entry whose start equals the
			// observation time stays queued until a strictly later virtual
			// observation. Committing at start == t would let wall-clock
			// submission order pick the window slots among co-resident
			// ranks tied at one virtual instant — the racing submitters
			// that arrived first would commit before their virtually-tied,
			// higher-priority peers ever reached the queue. Ties come from
			// synchronization (every tied rank submits before it can enter
			// the collective that advances anyone's clock past t), so by
			// the first strictly-later observation all tied peers are
			// queued and flushBefore resolves them deterministically.
			return
		}
		copy(n.pending[best:], n.pending[best+1:])
		n.pending[len(n.pending)-1] = nil
		n.pending = n.pending[:len(n.pending)-1]
		s, ok := n.scratch[e.req.Key]
		if !ok {
			// The scratch entry was dropped (GC) while queued; nothing to
			// flush.
			if cb := e.req.OnCancel; cb != nil {
				at := start
				depth := n.openAtLocked(start) + len(n.pending)
				*fire = append(*fire, func() { cb(at, "scratch-gone", depth) })
			}
			continue
		}
		end := n.pfs.write(e.req.PFSKey, s.data, start, s.simBytes, e.req.Owner, e.req.Share)
		n.recordFlushLocked(start, end)
		e.started, e.start, e.end = true, start, end
		if k := e.req.CoalesceKey; k != "" {
			if c, ok := n.lastCommit[k]; !ok || e.req.Version >= c.version {
				if n.lastCommit == nil {
					n.lastCommit = make(map[string]flushCommit)
				}
				n.lastCommit[k] = flushCommit{version: e.req.Version, start: start}
			}
		}
		if e.req.OnStart != nil {
			depth := n.openAtLocked(end) + len(n.pending)
			cb, st, en := e.req.OnStart, start, end
			*fire = append(*fire, func() { cb(st, en, depth) })
		}
	}
}

// nextStartLocked returns the earliest virtual time no earlier than
// `after` at which the number of in-flight flushes is below the policy
// window. The start is a function of the request's own enqueue time and
// the committed windows — deliberately NOT of a global "latest assigned
// start" frontier: a frontier makes the schedule depend on the wall-clock
// order in which same-node ranks (each at its own virtual clock) commit,
// so a rank that is virtually earlier but arrives later in real time
// would be pushed behind its peer in one run and not the other. Without
// it, a virtually-stale submission can transiently exceed the window
// bound by overlapping an already-committed later window — accepted, as
// same-node ranks resynchronize every collective and the skew is bounded
// by one compute step, while the determinism is what seeded replays pin.
// Caller holds n.mu.
func (n *Node) nextStartLocked(after float64) float64 {
	t := after
	for {
		var ends []float64
		for _, w := range n.flushes {
			if w.contains(t) {
				ends = append(ends, w.end)
			}
		}
		if len(ends) < n.policy.Window {
			return t
		}
		sort.Float64s(ends)
		// Move to the completion that frees enough slots: past
		// ends[len-Window], at most Window-1 of these windows remain open.
		t = ends[len(ends)-n.policy.Window]
	}
}

// openAtLocked counts flush windows containing t. Caller holds n.mu.
func (n *Node) openAtLocked(t float64) int {
	depth := 0
	for _, w := range n.flushes {
		if w.contains(t) {
			depth++
		}
	}
	return depth
}

// recordFlushLocked appends a committed flush window, pruning windows that
// ended well before the new flush began to bound memory over long runs.
// Caller holds n.mu.
func (n *Node) recordFlushLocked(start, end float64) {
	n.flushes = append(n.flushes, window{start: start, end: end})
	if len(n.flushes) > 64 {
		kept := n.flushes[:0]
		for _, w := range n.flushes {
			if w.end > start-1.0 {
				kept = append(kept, w)
			}
		}
		n.flushes = kept
	}
}
