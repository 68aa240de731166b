// The VeloC-side flush scheduling policy. The mechanism — a per-node
// bounded window over in-flight flushes with a deadline-ordered,
// coalescible queue — lives in cluster.FlushSubmit; this file computes the
// scheduling inputs (deadline, coalesce key) and emits the scheduler's
// observability: veloc.flush_queued at submission, veloc.flush_start /
// veloc.flush_end stamped with the committed window, and the coalescing
// and queue-wait metrics.
//
// Scheduling is enabled per job through mpi.JobConfig.Flush (the
// -flush-window flag on cmd/heatdis and cmd/minimd, which always
// coalesces); with the zero policy Checkpoint keeps the classic
// unmanaged one-flush-per-checkpoint behaviour.
package veloc

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// flushDeadline estimates when the submitted flush must complete to stay
// off the application's critical path: one checkpoint cadence from now,
// i.e. around the rank's next checkpoint commit. The first checkpoint has
// no cadence history and gets an unbounded deadline (lowest priority).
func (c *Client) flushDeadline(now float64) float64 {
	if c.lastCkptAt < 0 {
		return math.Inf(1)
	}
	return now + (now - c.lastCkptAt)
}

// coalesceKey groups flushes that supersede one another: all versions of
// one checkpoint name written by one logical rank.
func (c *Client) coalesceKey(name string) string {
	return fmt.Sprintf("%s/rank%d", name, c.rank)
}

// scheduleFlush submits the checkpoint's PFS flush to the node's flush
// scheduler. now is the submission time (the caller's clock when the
// scratch copy finished).
func (c *Client) scheduleFlush(name string, version, simSize int, now float64) error {
	node := c.p.Node()
	rec := c.p.Obs()
	rank := c.p.Rank()
	key := dataKey(name, version, c.rank)
	req := cluster.FlushRequest{
		Key:         key,
		PFSKey:      key,
		Owner:       rank,
		Deadline:    c.flushDeadline(now),
		CoalesceKey: c.coalesceKey(name),
		Version:     version,
	}
	if c.comm != nil {
		// Checkpoints are committed collectively, so every rank of the
		// communicator flushes this version together: fixing the PFS
		// congestion share to the comm size keeps flush windows a pure
		// function of virtual time (replay-determinism under storm cells
		// whose synchronized ranks would otherwise race for bandwidth
		// shares in arrival order).
		req.Share = c.comm.Size()
	}
	if rec.Enabled() {
		// Emitted before submission so flush_queued orders ahead of the
		// flush_start that a free window slot triggers immediately.
		rec.Emit(now, rank, obs.LayerVeloC, obs.EvVeloCFlushQueued,
			obs.KV("name", name), obs.KV("version", version),
			obs.KV("bytes", simSize), obs.KV("deadline", req.Deadline),
			obs.KV("queue_depth", node.QueuedFlushes()+node.InFlightAt(now)))
		reg := rec.Registry()
		req.OnStart = func(start, end float64, depthAtEnd int) {
			// Stamped with the committed window's virtual times, ahead of
			// the emitting rank's clock (the recorder re-orders by time).
			rec.Emit(start, rank, obs.LayerVeloC, obs.EvVeloCFlushStart,
				obs.KV("name", name), obs.KV("version", version),
				obs.KV("bytes", simSize), obs.KV("wait_seconds", start-now))
			rec.Emit(end, rank, obs.LayerVeloC, obs.EvVeloCFlushEnd,
				obs.KV("name", name), obs.KV("version", version),
				obs.KV("bytes", simSize), obs.KV("seconds", end-now),
				obs.KV("queue_depth", depthAtEnd))
			reg.Histogram(obs.MFlushSeconds, obs.TimeBuckets).Observe(end - now)
			reg.Histogram(obs.MFlushQueueWaitSeconds, obs.TimeBuckets).Observe(start - now)
			reg.Gauge(obs.MFlushQueueDepth).Set(float64(depthAtEnd))
		}
		req.OnCancel = func(at float64, reason string, depth int) {
			// The queued flush was lost with its node (daemon crash or
			// scratch loss) before it ever started — typically because the
			// owner rank was killed or shrunk away mid-queue. It contributes
			// no queue-wait observation (it never started); the discard event
			// and counter keep queued = started + coalesced + discarded
			// reconcilable, and the depth gauge reflects the drained queue.
			rec.Emit(at, rank, obs.LayerVeloC, obs.EvVeloCFlushDiscarded,
				obs.KV("name", name), obs.KV("version", version),
				obs.KV("bytes", simSize), obs.KV("reason", reason),
				obs.KV("queue_depth", depth))
			reg.Counter(obs.MFlushDiscarded).Inc()
			reg.Gauge(obs.MFlushQueueDepth).Set(float64(depth))
		}
		req.OnReorder = func(at, committedStart float64, committedVersion int) {
			// Deep virtual-time skew between co-resident ranks: a
			// virtually-later observer committed the older version at
			// committedStart before this virtually-earlier superseding
			// submission arrived, so the superseded bytes reached the PFS
			// instead of being coalesced. The commit stands (PFS writes are
			// final, and the newer version flushes right behind it); the
			// event makes the missed coalesce auditable under storm replays.
			rec.Emit(at, rank, obs.LayerCluster, obs.EvFlushReorder,
				obs.KV("name", name), obs.KV("version", version),
				obs.KV("committed_version", committedVersion),
				obs.KV("committed_start", committedStart))
			reg.Counter(obs.MFlushReorders).Inc()
		}
	}
	_, _, coalesced, err := node.FlushSubmit(req, now)
	if err != nil {
		return err
	}
	if coalesced > 0 {
		rec.Registry().Counter(obs.MFlushCoalesced).Add(float64(coalesced))
	}
	return nil
}

// syncFlushes advances every node's flush scheduler to the caller's
// current time, so queued flushes whose start times have been reached are
// visible to the PFS reads that follow. A no-op when scheduling is off.
func (c *Client) syncFlushes() {
	c.p.World().Cluster().AdvanceFlushes(c.p.Now())
}
