package mpi

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Proc is one simulated MPI process: a goroutine with a virtual clock, a
// node placement, a mailbox for point-to-point messages, and a per-category
// time recorder. A Proc is owned by its rank goroutine; only the mailbox
// and world-level failure state are shared.
type Proc struct {
	world *World
	rank  int
	node  *cluster.Node
	clock *sim.Clock
	rec   *trace.Recorder
	rng   *sim.RNG

	mail    mailbox
	collSeq map[int64]int64
	exited  bool

	// resume is the rank's park/wake channel (see exec.go): the rank
	// parks by receiving, a waker wakes it with a single buffered send.
	resume chan struct{}

	// obsDead tracks which failed world ranks this process has observed
	// (through an MPI error): each failure is emitted once per rank, and
	// sends to a rank known dead fail fast deterministically. Owned by the
	// rank goroutine; no lock needed.
	obsDead map[int]bool

	// Message-log cursors (msglog.go), owned by the rank goroutine. They
	// track how far this process has progressed through each logged stream:
	// a send below the stream length is suppressed (already delivered), a
	// receive below it is served from the log, a collective cursor below
	// the lineage length returns the logged result. logExempt marks
	// sections (e.g. the recovery-time version agreement) whose traffic is
	// outside the replayed program order and must stay live and unlogged.
	// logP2P is allocated at the rank's first logged send or receive.
	logP2P    *p2pCursors
	logColl   int
	logExempt int
}

// p2pCursors holds a rank's send and receive cursors, one per logged
// stream it touches.
type p2pCursors struct {
	send, recv []cursor
}

// cursors returns this process's p2p log cursors, allocating them on
// first use.
func (p *Proc) cursors() *p2pCursors {
	if p.logP2P == nil {
		p.logP2P = &p2pCursors{}
	}
	return p.logP2P
}

func newProc(w *World, rank int, node *cluster.Node, rng *sim.RNG, startTime float64) *Proc {
	p := &Proc{
		world:   w,
		rank:    rank,
		node:    node,
		clock:   sim.NewClockAt(startTime),
		rec:     trace.NewRecorder(),
		rng:     rng,
		collSeq: make(map[int64]int64),
		mail:    mailbox{q: make(map[msgKey]*msgQueue)},
		resume:  make(chan struct{}, 1),
	}
	return p
}

// Rank returns the process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.Size() }

// World returns the enclosing world.
func (p *Proc) World() *World { return p.world }

// Node returns the compute node hosting this process.
func (p *Proc) Node() *cluster.Node { return p.node }

// Machine returns the cost model.
func (p *Proc) Machine() *sim.Machine { return p.world.machine }

// Clock returns the process's virtual clock.
func (p *Proc) Clock() *sim.Clock { return p.clock }

// Recorder returns the process's time recorder.
func (p *Proc) Recorder() *trace.Recorder { return p.rec }

// RNG returns the process's deterministic random stream.
func (p *Proc) RNG() *sim.RNG { return p.rng }

// Obs returns the job's observability recorder (nil when the run is
// uninstrumented; all recorder methods are nil-safe).
func (p *Proc) Obs() *obs.Recorder { return p.world.obs }

// Event emits a structured observability event stamped with this process's
// world rank and current virtual time. It is a no-op without a recorder.
func (p *Proc) Event(layer, name string, attrs ...obs.Attr) {
	p.world.obs.Emit(p.clock.Now(), p.rank, layer, name, attrs...)
}

// Now returns the current virtual time (MPI_Wtime).
func (p *Proc) Now() float64 { return p.clock.Now() }

// Compute charges `units` of application work to the clock, with the
// machine's noise jitter applied, attributed to AppCompute (or the active
// section/recompute redirection).
func (p *Proc) Compute(units float64) {
	d := p.world.machine.ComputeTime(units) * p.rng.Jitter(p.world.machine.NoiseAmplitude)
	p.clock.Advance(d)
	p.rec.Add(trace.AppCompute, d)
}

// ComputeExact charges `units` of work with no jitter, for deterministic
// unit tests.
func (p *Proc) ComputeExact(units float64) {
	d := p.world.machine.ComputeTime(units)
	p.clock.Advance(d)
	p.rec.Add(trace.AppCompute, d)
}

// ChargeTime advances the clock by d seconds attributed to category c.
func (p *Proc) ChargeTime(c trace.Category, d float64) {
	p.clock.Advance(d)
	p.rec.Add(c, d)
}

// Exit kills this process, modeling a rank failure (the paper injects
// failures by a rank exiting early). It marks the process dead so peers
// observe the failure, then unwinds the rank goroutine; the launcher
// recovers the unwind. Exit never returns.
func (p *Proc) Exit() {
	p.exited = true
	p.world.markDead(p.rank)
	panic(processKilled{rank: p.rank})
}

// CrashNode models the loss of this process's entire compute node, as
// opposed to Exit's process-only failure (after which the node's VeloC
// server daemon survives and completes in-flight flushes). A node crash
// destroys node-local scratch and aborts every checkpoint flush the node's
// ranks had in flight: those PFS copies never become readable, and the
// data resiliency layer must fall back to an older complete version.
// CrashNode only damages storage; callers (the chaos engine) must still
// kill each of the node's ranks via Exit.
func (p *Proc) CrashNode() {
	now := p.clock.Now()
	// Settle the flush queue as of the crash instant before wiping scratch:
	// flushes that had started by now die as interrupted PFS writes
	// (FailPending below); the rest are discarded unstarted.
	p.node.CrashFlushes(now)
	p.node.ScratchClear()
	pfs := p.world.cluster.PFS()
	for _, q := range p.world.procs {
		if q.node == p.node {
			pfs.FailPending(q.rank, now)
		}
	}
}

// waitForDetection advances the clock to the failure-detection floor of
// the given dead world ranks: peers cannot act on a failure before the
// detector (heartbeat timeout) reports it.
func (p *Proc) waitForDetection(ranks []int) {
	p.clock.AdvanceTo(p.world.DetectionFloor(ranks))
}

// congestionFactor returns the MPI cost multiplier in effect right now for
// this process: >1 while its node's asynchronous checkpoint flush is in
// flight.
func (p *Proc) congestionFactor() float64 {
	if p.node.CongestedAt(p.clock.Now()) {
		return p.world.machine.CongestionFactor
	}
	return 1
}

// congest inflates a base MPI cost by the congestion factor in effect at
// the process's current time, crediting the inflation to the
// veloc_flush_wait_seconds counter — the MPI-visible time cost of
// in-flight checkpoint flushes.
func (p *Proc) congest(base float64) float64 {
	f := p.congestionFactor()
	if f <= 1 {
		return base
	}
	p.world.obs.Registry().Counter(obs.MFlushWaitSeconds).Add(base * (f - 1))
	return base * f
}

// failMPI funnels every MPI error through the world's failure disposition:
// under fail-restart semantics a process failure aborts the whole job
// (panic recovered by the launcher); under ULFM semantics the error is
// returned for the process resilience layer to handle. Communicator
// operations funnel through Comm.fail instead, which additionally records
// the caller's departure from that communicator.
func (p *Proc) failMPI(err error) error {
	if err == nil {
		return nil
	}
	p.noteFailures(err)
	if p.world.abortOnFailure && IsULFMError(err) {
		panic(jobAborted{rank: p.rank, cause: err})
	}
	return err
}

// noteFailures records the failed ranks this process has now observed
// (p.obsDead gates deterministic send fail-fasts) and emits
// mpi.failure_detected for each one. Every MPI error funnels through
// failMPI, so this is the single place failure observation becomes visible
// to the event stream, deduplicated per (observer, failed rank).
func (p *Proc) noteFailures(err error) {
	var fe *FailedError
	if !errors.As(err, &fe) {
		return
	}
	for _, wr := range fe.WorldRanks {
		if p.obsDead[wr] {
			continue
		}
		if p.obsDead == nil {
			p.obsDead = make(map[int]bool)
		}
		p.obsDead[wr] = true
		p.Event(obs.LayerMPI, obs.EvFailureDetected, obs.KV("failed_rank", wr))
		p.world.obs.Registry().Counter(obs.MFailuresDetected).Inc()
	}
}

// msglogOn returns the world's message log when it should mediate traffic
// on c for this process: the log is live, c is part of the registered
// resilient lineage, and the process is not inside an exempt section. It
// takes no lock.
func (p *Proc) msglogOn(c *Comm) *MsgLog {
	l := p.world.msglog
	if l == nil || p.logExempt > 0 || !c.logged.Load() || !l.Active() {
		return nil
	}
	return l
}

// cursorOf returns this process's cursor for stream key in *cs (its send
// or its receive cursors), adding one at 0 on first use. A rank touches a
// handful of streams, so a scan beats a map. The pointer is valid until
// the next call.
func (p *Proc) cursorOf(cs *[]cursor, l *MsgLog, key p2pKey) *cursor {
	for i := range *cs {
		if (*cs)[i].key == key {
			return &(*cs)[i]
		}
	}
	*cs = append(*cs, cursor{key: key, s: l.stream(key)})
	return &(*cs)[len(*cs)-1]
}

// LogExemptBegin marks the start of a message-log-exempt section: traffic
// until the matching LogExemptEnd is neither logged nor replayed. Recovery
// infrastructure (the checkpoint version agreement) uses this so its
// collectives do not shift the replayed lineage's cursor space.
func (p *Proc) LogExemptBegin() { p.logExempt++ }

// LogExemptEnd closes the innermost exempt section.
func (p *Proc) LogExemptEnd() {
	if p.logExempt == 0 {
		panic("mpi: unbalanced LogExemptEnd")
	}
	p.logExempt--
}

// MsgLogActive reports whether the world's message log is live (enabled
// and not disabled by a shrink compaction). Localized recovery is only
// possible while it is.
func (p *Proc) MsgLogActive() bool { return p.world.msglog.Active() }

// msglogCursors builds a snapshot of this process's current log cursors,
// in one allocation that the log will own.
func (p *Proc) msglogCursors() cursorSnap {
	c := p.cursors()
	cur := make([]cursor, 0, len(c.send)+len(c.recv))
	cur = append(append(cur, c.send...), c.recv...)
	return cursorSnap{cur: cur, nSend: len(c.send), coll: p.logColl}
}

// installCursors copies s into this process's log cursors (p2p only when
// p2pToo; the collective cursor is always installed). s stays untouched.
func (p *Proc) installCursors(s cursorSnap, p2pToo bool) {
	p.logColl = s.coll
	if !p2pToo {
		return
	}
	c := p.cursors()
	c.send = append(c.send[:0], s.send()...)
	c.recv = append(c.recv[:0], s.recv()...)
}

// MsgLogRecord records this process's cursors as logical slot `slot`'s
// boundary snapshot for iteration iter (first incarnation to reach the
// boundary wins). No-op when the log is inactive.
func (p *Proc) MsgLogRecord(slot, iter int) {
	l := p.world.msglog
	if !l.Active() {
		return
	}
	l.snapshot(slot, iter, p.msglogCursors())
}

// MsgLogInstall installs the boundary snapshot for (slot, iter) into this
// process's cursors and reports whether one existed. p2pToo selects
// whether point-to-point cursors are rewound as well (replaying
// replacements) or only the collective cursor (paused survivors, whose
// live p2p cursors are ground truth).
func (p *Proc) MsgLogInstall(slot, iter int, p2pToo bool) bool {
	l := p.world.msglog
	if !l.Active() {
		return false
	}
	s, ok := l.snapshotAt(slot, iter)
	if ok {
		p.installCursors(s, p2pToo)
	}
	return ok
}

// MsgLogHasSnapshot reports whether a boundary snapshot exists for (slot,
// iter).
func (p *Proc) MsgLogHasSnapshot(slot, iter int) bool {
	l := p.world.msglog
	if !l.Active() {
		return false
	}
	_, ok := l.snapshotAt(slot, iter)
	return ok
}

// MsgLogFastForward sets this process's cursors to the frontier of every
// stream touching slot: the state of a rank that has sent and consumed
// everything logged for it. A replacement whose restored checkpoint
// version V covers a fully-executed iteration with no recorded successor
// boundary (the predecessor died right after committing V) uses this to
// jump over the restored iteration's traffic.
func (p *Proc) MsgLogFastForward(slot int) {
	l := p.world.msglog
	if !l.Active() {
		return
	}
	p.installCursors(l.frontier(slot), true)
}

// MsgLogResetCursors zeroes this process's log cursors.
func (p *Proc) MsgLogResetCursors() {
	if c := p.logP2P; c != nil {
		c.send, c.recv = c.send[:0], c.recv[:0]
	}
	p.logColl = 0
}

// MsgLogResetOnce clears the whole world log for repair generation gen
// (first caller wins) and zeroes this process's cursors. Used when a
// recovery finds no committed checkpoint: the run re-executes from
// scratch, so the aborted epoch's log is garbage everywhere.
func (p *Proc) MsgLogResetOnce(gen int) {
	l := p.world.msglog
	if !l.Active() {
		return
	}
	l.ResetOnce(gen)
	p.MsgLogResetCursors()
}

// MsgLogCommit records that logical slot `slot` committed checkpoint
// version `version` at this process's current time, advancing the GC
// watermark and trimming unreachable entries when every slot has
// committed.
func (p *Proc) MsgLogCommit(slot, version int) {
	l := p.world.msglog
	if !l.Active() {
		return
	}
	water, trimmed, reached := l.NoteCommit(slot, version, p.clock.Now())
	p.world.noteTrim(water, trimmed, reached)
}

// noteTrim updates the log-size gauges and, when a watermark advance
// dropped entries, emits mpi.msg_log_trim with rank -1 at the virtual
// time the watermark was reached — not at the clock of whichever slot's
// commit happened to complete it first in wall-clock order.
func (w *World) noteTrim(water, trimmed int, reached float64) {
	w.msglogGauges()
	if trimmed > 0 {
		w.obs.Registry().Counter(obs.MMsgLogTrimmed).Add(float64(trimmed))
		w.obs.Emit(reached, -1, obs.LayerMPI, obs.EvMsgLogTrim,
			obs.KV("watermark", water), obs.KV("trimmed", trimmed))
	}
}

// msglogGauges publishes the log's current size to the metrics registry.
func (w *World) msglogGauges() {
	reg := w.obs.Registry()
	reg.Gauge(obs.MMsgLogEntries).Set(float64(w.msglog.entries.Load()))
	reg.Gauge(obs.MMsgLogBytes).Set(float64(w.msglog.bytes.Load()))
}

// nextSeq returns the process's next collective sequence number on comm id.
// Collectives must be called in the same order by all participants, as in
// MPI.
func (p *Proc) nextSeq(comm int64) int64 {
	s := p.collSeq[comm]
	p.collSeq[comm] = s + 1
	return s
}
